"""The synchronous lock core (repro.service.core) with no event loop.

Every call below is a plain function call — no coroutine, no
``asyncio.run`` — so a schedule is a list of core calls.  An operation
that has to wait returns its :class:`Park`; once the park has ended
(its outcome is on the record), the schedule calls the same operation
again with ``resume=park``.  The schedules are the ones
``test_service_park.py`` drives through the asyncio adapter, and the
churn a parked session announces is the sequence the adapter emits for
the same calls.
"""

import pytest

from repro.db.serializability import check_serializable
from repro.exceptions import TransactionAborted
from repro.service.core import LockCore, SessionState
from repro.service.park import COMMIT_ITEM, Park, ParkKind
from tests.test_service_park import catalog_ab, hot_catalog


def test_seed3_cycle_is_redecided_as_a_list_of_core_calls():
    # Catalog seed 3: S8 (lowest) r(x5) w(x11) r(x1); S1 (highest)
    # r(x2) r(x1) w(x4) w(x5) — the seven-operation cycle of
    # test_service_park.py, with both sessions committing.
    core = LockCore(hot_catalog(3), "pcp-da")
    s8 = core.begin("S8")
    core.read(s8, "x5")
    assert core.write(s8, "x11", "s8") is None
    s1 = core.begin("S1")
    core.read(s1, "x2")
    core.read(s1, "x1")
    parked_read = core.read(s8, "x1")
    assert isinstance(parked_read, Park) and not parked_read.ended
    assert parked_read.kind is ParkKind.LOCK
    assert parked_read.blockers == (s1.job,)
    assert core.write(s1, "x4", "s1") is None
    blocked_write = core.write(s1, "x5", "s1")
    # S1 now waits on S8, so S1's read locks no longer count against S8:
    # parking the write re-decides the read, which is granted.
    assert parked_read.ended
    assert parked_read.outcome == s8.job.grant_rules[-1][3]
    assert not blocked_write.ended
    assert core.parks == {s1: blocked_write}
    assert blocked_write.blockers == (s8.job,)
    assert core.read(s8, "x1", resume=parked_read) is None
    assert core.commit(s8)["installed"] == ["x11"]
    assert blocked_write.ended
    assert core.write(s1, "x5", "s1", resume=blocked_write) is None
    core.read(s1, "x23")
    assert core.commit(s1)["installed"] == ["x4", "x5"]
    assert core.stats.deadlocks == 0
    assert core.stats.forced_aborts == 0
    assert not core.parks and not core._item_parks
    order = check_serializable(core.history).topological_order()
    assert order.index("S8#0") < order.index("S1#0")


# Each setup (catalog_ab: A writes x and reads y, B reads x and writes y)
# returns the parked session, the operation that parks (called again
# with ``resume=``) and the call that releases it.
def _park_lock(core, a, b):
    core.read(b, "x")
    return a, lambda **kw: core.write(a, "x", 1, **kw), lambda: core.commit(b)


def _park_order_guard(core, a, b):
    core.write(a, "x", 1)
    core.read(b, "x")       # B ≺ A
    core.write(b, "y", 2)
    return a, lambda **kw: core.read(a, "y", **kw), lambda: core.commit(b)


def _park_commit_fence(core, a, b):
    core.write(a, "x", 1)
    core.prepare_commit(a)
    return (b, lambda **kw: core.read(b, "x", **kw),
            lambda: core.unprepare_commit(a))


def _park_commit_gate(core, a, b):
    core.write(a, "x", 1)
    core.read(b, "x")       # B ≺ A
    return a, lambda **kw: core.commit(a, **kw), lambda: core.commit(b)


_SETUPS = {
    ParkKind.LOCK: _park_lock,
    ParkKind.ORDER_GUARD: _park_order_guard,
    ParkKind.COMMIT_FENCE: _park_commit_fence,
    ParkKind.COMMIT_GATE: _park_commit_gate,
}


@pytest.mark.parametrize("ending", ["released", "aborted", "expired"])
@pytest.mark.parametrize("kind", list(ParkKind), ids=lambda k: k.name)
def test_every_park_kind_ends_on_its_record(kind, ending):
    core = LockCore(catalog_ab(), "pcp-da")
    churn = []
    core.churn_listeners.append(
        lambda what, job, other: churn.append((what, job.name))
    )
    a = core.begin("A")
    b = core.begin("B")
    parked, operation, release = _SETUPS[kind](core, a, b)
    park = operation()
    assert isinstance(park, Park) and park.kind is kind and not park.ended
    assert core.parks == {parked: park}
    assert parked in core._item_parks[park.item]
    assert (park.item == COMMIT_ITEM) == (kind is ParkKind.COMMIT_GATE)
    assert parked.state is SessionState.WAITING

    if ending == "released":
        release()
        assert park.ended
        if kind is ParkKind.COMMIT_GATE:
            # A wake, not a grant: the commit leaves the queue itself.
            assert park.outcome is None and core.parks == {parked: park}
        else:
            assert park.outcome == parked.job.grant_rules[-1][3]
        assert not isinstance(operation(resume=park), Park)
        assert parked.state.live or kind is ParkKind.COMMIT_GATE
    elif ending == "aborted":
        core.force_abort(parked, "victim")
        assert park.ended and isinstance(park.outcome, TransactionAborted)
        with pytest.raises(TransactionAborted, match="victim"):
            operation(resume=park)
    else:
        # What the adapter calls when the deadline passes mid-wait.
        core.expire(parked, "deadline")
        assert core.stats.deadline_aborts == 1
    if ending != "released":
        assert parked.state is SessionState.ABORTED

    assert not core.parks and not core._item_parks
    assert not core.waits.waiters()
    (interval,) = parked.job.block_intervals
    assert interval.end is not None
    assert core.stats.lock_wait.total == 1
    leaving = [what for what, name in churn
               if name == parked.name and what != "constraint"]
    if ending == "released":
        assert leaving[:2] == ["wait", "unwait"]
    elif ending == "aborted" and kind is ParkKind.COMMIT_GATE:
        assert leaving == ["wait", "abort"]
    else:
        assert leaving == ["wait", "unwait", "abort"]

    for session in (b, a):
        if session.state.live:
            assert not isinstance(core.commit(session), Park)
    check_serializable(core.history)
    core.waits.self_check()
