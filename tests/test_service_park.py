"""The park → wait → unpark path of the lock manager (repro.service.park).

Four ways a request waits (lock, order guard, commit fence, commit
gate), one record and one path for all of them — and the two things
that path now does when a wait-for cycle appears under a protocol the
paper proves deadlock-free: re-decide the cycle's parked members
(Lemma 8 evaluated at wait time, not only at decision time), and, when a
cycle survives that, abort the requester instead of leaving it live.

In-process and socket-free, like ``test_service_manager.py``.
"""

import asyncio
import random

import pytest

from repro.db.serializability import (
    check_serializable,
    check_serializable_fast,
)
from repro.exceptions import (
    DeadlineExceeded,
    InvariantViolation,
    ServiceError,
    SpecificationError,
    TransactionAborted,
)
from repro.model.priorities import assign_by_order
from repro.model.spec import TaskSet, TransactionSpec, read, write
from repro.service import LockManager, ServiceConfig, ShardedLockManager
from repro.service.manager import SessionState
from repro.service.park import COMMIT_ITEM, ParkKind
from repro.verify.stress import StressSpec, make_catalog


def run(coro):
    """Run one async test body on a fresh event loop."""
    return asyncio.run(coro)


async def settle(steps: int = 5) -> None:
    """Let every ready callback on the loop run."""
    for _ in range(steps):
        await asyncio.sleep(0)


def hot_catalog(seed: int) -> TaskSet:
    """The benchmark suite's ``hot`` shape at another catalog seed."""
    return make_catalog(StressSpec(
        seed=seed, txn_types=8, items=24, min_ops=2, max_ops=5,
        write_probability=0.3, zipf_s=1.1,
    ))


class TestStaleWaiterExemption:
    """Lemma 8 (locks held by a transaction waiting on the requester
    never deny it) must hold for a request parked *before* its blocker
    began waiting on it, not only for one decided afterwards."""

    def test_two_session_cycle_is_redecided_not_reported(self):
        # Catalog seed 3: S8 (lowest) r(x5) w(x11) r(x1); S1 (highest)
        # r(x2) r(x1) w(x4) w(x5).  S8's r(x1) is ceiling-blocked by S1's
        # read locks, then S1's w(x5) conflicts with S8's read lock: a
        # cycle in seven operations, in an order one CPU cannot produce
        # (S8 would never run while S1 can).
        async def body():
            manager = LockManager(hot_catalog(3), "pcp-da")
            s8 = await manager.begin("S8")
            await manager.read(s8, "x5")
            await manager.write(s8, "x11", "s8")
            s1 = await manager.begin("S1")
            await manager.read(s1, "x2")
            await manager.read(s1, "x1")
            parked_read = asyncio.ensure_future(manager.read(s8, "x1"))
            await settle()
            assert manager.parks[s8].kind is ParkKind.LOCK
            assert manager.parks[s8].blockers == (s1.job,)
            await manager.write(s1, "x4", "s1")
            blocked_write = asyncio.ensure_future(
                manager.write(s1, "x5", "s1")
            )
            await settle()
            # S1 now waits on S8, so S1's read locks no longer count
            # against S8: the parked read is granted, the write waits.
            assert parked_read.done() and parked_read.exception() is None
            assert not blocked_write.done()
            assert manager.parks[s1].blockers == (s8.job,)
            await manager.commit(s8)
            await blocked_write
            await manager.read(s1, "x23")
            await manager.commit(s1)
            assert manager.stats.deadlocks == 0
            assert manager.stats.forced_aborts == 0
            order = check_serializable(manager.history).topological_order()
            assert order.index("S8#0") < order.index("S1#0")

        run(body())

    def test_seeded_replay_completes_on_the_failing_catalog(self):
        # At the parent commit the 17th begin of this replay ends in the
        # violation above and every later client stalls behind it.
        counts, violations, manager = run(_replay(hot_catalog(3), 6, 8))
        assert violations == []
        assert counts == {"begun": 48, "committed": 48, "aborted": 0}
        assert manager.stats.deadlocks == 0


class TestViolationDoesNotWedge:
    def test_surviving_cycle_aborts_its_requester(self):
        # Catalog seed 6 still closes a cycle the re-decide cannot open:
        # S1 r(x13) … w(x4) against S5 r(x4) … w(x13), two LC1 conflict
        # waits.  That is an open defect (ROADMAP item 1); what is pinned
        # here is that reporting it costs one session, not the service.
        counts, violations, manager = run(_replay(hot_catalog(6), 8, 60))
        assert violations, (
            "the seed-6 cycle no longer shows (fixed?): pin the abort-the-"
            "requester path on another schedule"
        )
        for session, message in violations:
            assert session.state is SessionState.ABORTED
            assert session.abort_reason == "invariant violation"
            assert not manager.table.items_held_by(session.job)
            assert message.startswith(
                "wait-for cycle under deadlock-free protocol pcp-da: "
            )
            # every member with its kind, request and denying rule
            assert message.count("lock write(x") == 2
            assert "denied by 'conflict blocking" in message
        assert counts["begun"] == 480
        assert counts["aborted"] == 0
        assert counts["committed"] == 480 - len(violations)
        assert manager.stats.forced_aborts == len(violations)

    def test_raise_action_rejects_the_request_and_keeps_the_session(self):
        async def body():
            a = TransactionSpec("A", (write("x", 1.0), read("y", 1.0)))
            b = TransactionSpec("B", (read("x", 1.0), write("y", 1.0)))
            manager = LockManager(
                assign_by_order([a, b]), "pcp-da",
                ServiceConfig(deadlock_action="raise"),
            )
            sa = await manager.begin("A")
            sb = await manager.begin("B")
            await manager.write(sa, "x", 1)
            await manager.write(sb, "y", 2)
            # crossed ≺ constraints, injected as in test_service_manager
            assert manager.constraints.add(sb.job, sa.job)
            assert manager.constraints.add(sa.job, sb.job)
            commit_a = asyncio.ensure_future(manager.commit(sa))
            await settle()
            with pytest.raises(ServiceError, match="deadlock detected"):
                await manager.commit(sb)
            assert sb.state is SessionState.ACTIVE
            assert sb not in manager.parks
            assert not manager.waits.is_blocked(sb.job)
            await manager.abort(sb)
            await commit_a

        run(body())


async def _replay(catalog, clients, per_client, seed=7):
    """``clients`` interleaved closed-loop clients that yield between
    operations — the replay of ``TestLiveSessionScale``, with no clocks
    or deadlines, so every decision is a function of the seed.  A client
    that is told of an invariant violation moves on *without* sending
    ``abort``; nobody may stall."""
    manager = LockManager(catalog, "pcp-da", ServiceConfig(max_sessions=512))
    names = list(catalog.names)
    counts = {"begun": 0, "committed": 0, "aborted": 0}
    violations = []

    async def client(index):
        rng = random.Random(f"{seed}:{index}")
        for _ in range(per_client):
            name = rng.choice(names)
            session = await manager.begin(name)
            counts["begun"] += 1
            try:
                for op in catalog[name].operations:
                    await asyncio.sleep(0)
                    if op.kind.value == "read":
                        await manager.read(session, op.item)
                    else:
                        await manager.write(
                            session, op.item, f"{session.name}@{op.item}"
                        )
                await asyncio.sleep(0)
                await manager.commit(session)
                counts["committed"] += 1
            except TransactionAborted:
                counts["aborted"] += 1
            except InvariantViolation as exc:
                violations.append((session, str(exc)))

    await asyncio.wait_for(
        asyncio.gather(*(client(i) for i in range(clients))), timeout=60.0
    )
    check_serializable_fast(manager.history)
    assert not manager.live_sessions()
    assert not manager.parks and not manager._item_parks
    assert not manager.waits.waiters()
    manager.waits.self_check()
    manager.kernel.self_check()
    return counts, violations, manager


# A (low) writes x and reads y; B (high) reads x and writes y: every kind
# of park between two sessions.
def catalog_ab() -> TaskSet:
    a = TransactionSpec("A", (write("x", 1.0), read("y", 1.0)))
    b = TransactionSpec("B", (read("x", 1.0), write("y", 1.0)))
    return assign_by_order([b, a])


async def _park_lock(manager, a, b):
    await manager.read(b, "x")
    return a, manager.write(a, "x", 1), lambda: manager.commit(b)


async def _park_order_guard(manager, a, b):
    await manager.write(a, "x", 1)
    await manager.read(b, "x")       # B ≺ A
    await manager.write(b, "y", 2)
    return a, manager.read(a, "y"), lambda: manager.commit(b)


async def _park_commit_fence(manager, a, b):
    await manager.write(a, "x", 1)
    manager.prepare_commit(a)

    async def drop_fence():
        manager.unprepare_commit(a)

    return b, manager.read(b, "x"), drop_fence


async def _park_commit_gate(manager, a, b):
    await manager.write(a, "x", 1)
    await manager.read(b, "x")       # B ≺ A
    return a, manager.commit(a), lambda: manager.commit(b)


_SETUPS = {
    ParkKind.LOCK: _park_lock,
    ParkKind.ORDER_GUARD: _park_order_guard,
    ParkKind.COMMIT_FENCE: _park_commit_fence,
    ParkKind.COMMIT_GATE: _park_commit_gate,
}


class TestOnePathForEveryKind:
    """Every kind of park, ended every way, leaves nothing behind."""

    @pytest.mark.parametrize("ending",
                             ["released", "deadline", "cancelled", "victim"])
    @pytest.mark.parametrize("kind", list(ParkKind), ids=lambda k: k.name)
    def test_park_leaves_nothing_behind(self, kind, ending):
        async def body():
            manager = LockManager(catalog_ab(), "pcp-da")
            churn = []
            manager.churn_listeners.append(
                lambda what, job, other: churn.append((what, job.name))
            )
            # the fence parks B; every other kind parks A
            late = "B" if kind is ParkKind.COMMIT_FENCE else "A"
            if ending != "deadline":
                late = None
            a = await manager.begin(
                "A", deadline_s=0.05 if late == "A" else None
            )
            b = await manager.begin(
                "B", deadline_s=0.05 if late == "B" else None
            )
            parked, operation, release = await _SETUPS[kind](manager, a, b)
            task = asyncio.ensure_future(operation)
            await settle()

            park = manager.parks[parked]
            assert park.kind is kind and not task.done()
            if kind.service_made:
                assert park.reason.startswith(kind.value + ":")
            assert parked.state is SessionState.WAITING
            assert manager.stats_document()["waiting_sessions"] == 1
            assert parked in manager._item_parks[park.item]
            assert (park.item == COMMIT_ITEM) == (kind is ParkKind.COMMIT_GATE)
            assert manager.waits.blockers_of(parked.job) == park.blockers

            if ending == "released":
                await release()
                await task
                assert parked.state.live or kind is ParkKind.COMMIT_GATE
            elif ending == "deadline":
                with pytest.raises(DeadlineExceeded):
                    await task
            elif ending == "cancelled":
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
            else:
                manager.force_abort(parked, "victim")
                with pytest.raises(TransactionAborted):
                    await task
            if ending != "released":
                assert parked.state is SessionState.ABORTED

            assert not manager.parks and not manager._item_parks
            assert not manager.waits.waiters()
            (interval,) = parked.job.block_intervals
            assert interval.end is not None
            assert manager.stats.lock_wait.total == 1
            assert manager.stats_document()["waiting_sessions"] == 0
            # The churn a shard-host mirror is fed: a live session leaves
            # the graph with "unwait"; a gate-parked victim's "abort"
            # alone says so.
            leaving = [what for what, name in churn
                       if name == parked.name and what != "constraint"]
            if ending == "released":
                assert leaving[:2] == ["wait", "unwait"]
            elif ending == "victim" and kind is ParkKind.COMMIT_GATE:
                assert leaving == ["wait", "abort"]
            else:
                assert leaving == ["wait", "unwait", "abort"]

            for session in (b, a):
                if session.state.live:
                    await manager.commit(session)
            check_serializable(manager.history)
            manager.waits.self_check()

        run(body())

    def test_coordinator_counts_every_park_once(self):
        async def body():
            # One shard, so the gate park is the shard's own: the merged
            # gauge reads the shard's registry through a public count.
            manager = ShardedLockManager(catalog_ab(), "pcp-da", shards=1)
            a = await manager.begin("A")
            b = await manager.begin("B")
            await manager.write(a, "x", 1)
            await manager.read(b, "x")
            task = asyncio.ensure_future(manager.commit(a))
            await settle()
            assert manager.stats_document()["waiting_sessions"] == 1
            await manager.commit(b)
            await task
            assert manager.stats_document()["waiting_sessions"] == 0
            await manager.shutdown()

        run(body())

    def test_commit_pseudo_item_is_reserved(self):
        spec = TransactionSpec("T", (read(COMMIT_ITEM, 1.0),))
        with pytest.raises(SpecificationError, match="reserved"):
            LockManager(assign_by_order([spec]), "pcp-da")
