"""The synchronous lock core (repro.service.core) with no event loop.

Every call below is a plain function call — no coroutine, no
``asyncio.run`` — so a schedule is a list of core calls.  An operation
that has to wait returns its :class:`Park`; once the park has ended
(its outcome is on the record), the schedule calls the same operation
again with ``resume=park``.  The schedules are the ones
``test_service_park.py`` drives through the asyncio adapter, and the
churn a parked session announces is the sequence the adapter emits for
the same calls.  ``TestOneOperationLifecycle`` runs its schedules over
both ``LockCore`` and a 2-shard ``ShardedCore``, which share one
operation driver.
"""

import pytest

from repro.db.serializability import check_serializable
from repro.exceptions import SessionStateError, TransactionAborted
from repro.service.core import LockCore, SessionState
from repro.service.park import COMMIT_ITEM, Park, ParkKind
from repro.service.sharding.core import ShardedCore
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
    assert not core.parks
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
    assert (park.item == COMMIT_ITEM) == (kind is ParkKind.COMMIT_GATE)
    assert parked.state is SessionState.WAITING

    if ending == "released":
        release()
        assert park.ended
        if kind is ParkKind.COMMIT_GATE:
            # A cleared gate, not a grant: the park is already off the
            # registry, and the commit re-enters to install.
            assert park.outcome is None and not core.parks
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

    assert not core.parks
    assert not core.waits.waiters()
    (interval,) = parked.job.block_intervals
    assert interval.end is not None
    assert core.stats.lock_wait.total == 1
    leaving = [what for what, name in churn
               if name == parked.name and what != "constraint"]
    if ending == "released":
        assert leaving[:2] == ["wait", "unwait"]
    else:
        assert leaving == ["wait", "unwait", "abort"]

    for session in (b, a):
        if session.state.live:
            assert not isinstance(core.commit(session), Park)
    check_serializable(core.history)
    core.waits.self_check()


def test_a_commit_gate_wait_is_one_park():
    # A writes x; two instances of B read past A's write lock, so both
    # are serialized before A, and A's commit waits at the gate for both.
    core = LockCore(catalog_ab(), "pcp-da")
    a = core.begin("A")
    b1 = core.begin("B")
    b2 = core.begin("B")
    unrelated = core.begin("B")
    assert core.write(a, "x", 1) is None
    core.read(b1, "x")
    core.read(b2, "x")
    park = core.commit(a)
    assert isinstance(park, Park) and park.kind is ParkKind.COMMIT_GATE
    assert park.blockers == (b1.job, b2.job)

    # A terminal the gate does not blame does not touch it.
    core.commit(unrelated)
    assert not park.ended and core.parks == {a: park}
    # A blamed predecessor's terminal re-checks the gate in place.
    core.commit(b1)
    assert not park.ended and core.parks == {a: park}
    assert park.blockers == (b2.job,)
    assert a.job.block_intervals[-1].blockers == (b2.name,)
    # The last one clears it: the park ends off the registry.
    core.commit(b2)
    assert park.ended and park.outcome is None
    assert core.parks == {}
    assert core.commit(a, resume=park)["installed"] == ["x"]
    assert len(a.job.block_intervals) == 1
    assert core.stats.lock_wait.total == 1
    check_serializable(core.history)
    core.waits.self_check()


# One operation lifecycle for both cores: the same driver runs
# ``LockCore``'s and ``ShardedCore``'s operations, so the same schedule
# meets the same refusals on both.
_CORES = {
    "lock-core": lambda: LockCore(catalog_ab(), "pcp-da"),
    "sharded-2": lambda: ShardedCore(catalog_ab(), "pcp-da", shards=2),
}


@pytest.fixture(params=sorted(_CORES))
def any_core(request):
    return _CORES[request.param]()


def _parked_write(core):
    """B holds a read lock on x; A's write of x parks behind it (LC1)."""
    a = core.begin("A")
    b = core.begin("B")
    core.read(b, "x")
    park = core.write(a, "x", 1)
    assert isinstance(park, Park) and not park.ended
    assert a.in_flight and a.op is not None
    return a, b, park


class TestOneOperationLifecycle:
    def test_a_second_operation_while_one_is_suspended_is_refused(
        self, any_core
    ):
        a, b, park = _parked_write(any_core)
        for ended in (False, True):
            # Refused while parked, and still refused after the park
            # ended until the operation has resumed: it is in flight.
            with pytest.raises(SessionStateError, match="in-flight"):
                any_core.read(a, "y")
            with pytest.raises(SessionStateError, match="waiting"):
                any_core.abort(a)
            if not ended:
                any_core.commit(b)
                assert park.ended
        assert any_core.write(a, "x", 1, resume=park) is None
        assert a.op is None and not a.in_flight
        assert not isinstance(any_core.commit(a), Park)

    def test_resume_without_a_suspended_operation_is_refused(self, any_core):
        a, b, park = _parked_write(any_core)
        with pytest.raises(SessionStateError,
                           match="no operation waits on that park"):
            any_core.read(b, "x", resume=park)
        any_core.commit(b)
        assert any_core.write(a, "x", 1, resume=park) is None
        # Resumed once, the operation is over: a second resume is refused
        # rather than re-running it.
        with pytest.raises(SessionStateError,
                           match="no operation waits on that park"):
            any_core.write(a, "x", 1, resume=park)
        assert a.state.live and a.op is None

    def test_expire_drops_the_suspended_operation(self, any_core):
        a, b, park = _parked_write(any_core)
        any_core.expire(a, "deadline")
        assert a.op is None and not a.in_flight
        assert a.state is SessionState.ABORTED
        assert any_core.stats.deadline_aborts == 1
        for core in (any_core,) + getattr(any_core, "shards", ()):
            assert not core.parks
        assert not isinstance(any_core.commit(b), Park)

    def test_expire_drops_the_leg_operation_under_it(self):
        # A's global write waits at its leg's lock wait: the leg's own
        # suspended operation is dropped too, since no resume reaches it.
        core = _CORES["sharded-2"]()
        a, b, park = _parked_write(core)
        leg = park.session
        assert leg is a.legs[core._shard_of["x"]] and leg.op is not None
        core.expire(a, "deadline")
        assert a.op is None and leg.op is None
