"""Tests for the event-driven wakeup paths (no timer-driven progress).

The coordinator has no timer: shard churn notifications wake exactly
the waiters whose constraints changed.  Every blocking scenario below
bounds its wait with ``wait_for``: if any path needed a timer to make
progress, the test would hang past that deadline.

The manager-side counterpart is covered the same way: the grant queue
re-decides only the waiters the drained churn can affect (item touched,
blamed job released, or own priority moved), and the constraint graph's
closure memo is dirtied exactly on constraint-graph edits.

All socket-free; part of ``make verify-sharding``'s tier.
"""

import asyncio

from repro.engine.kernel import Kernel
from repro.exceptions import TransactionAborted
from repro.model.priorities import assign_by_order
from repro.model.spec import TaskSet, TransactionSpec, read, write
from repro.service import LockManager, ShardedLockManager
from repro.service.manager import SessionState

def catalog_two_shards() -> TaskSet:
    """Items {a, b} on shard 0, {f} on shard 1 (range over 2)."""
    r = TransactionSpec("R", (read("b", 1.0),))
    rf = TransactionSpec("RF", (read("f", 1.0), write("a", 1.0)))
    w = TransactionSpec("W", (write("b", 1.0), write("f", 1.0)))
    return assign_by_order([r, rf, w])


def make_manager(**kwargs) -> ShardedLockManager:
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("partitioner", "range")
    catalog = kwargs.pop("catalog", None) or catalog_two_shards()
    return ShardedLockManager(catalog, "pcp-da", None, **kwargs)


def run(coro):
    return asyncio.run(coro)


async def settle(steps: int = 5) -> None:
    for _ in range(steps):
        await asyncio.sleep(0)


class TestGateWakeupOnNotification:
    def test_gate_opens_on_commit_without_sweep_timer(self):
        async def body():
            mgr = make_manager()
            writer = await mgr.begin("W")
            await mgr.write(writer, "b", "new")
            await mgr.write(writer, "f", "new")
            reader = await mgr.begin("R")
            await mgr.read(reader, "b")  # R ≺ W on shard 0
            commit_task = asyncio.ensure_future(mgr.commit(writer))
            await settle()
            assert not commit_task.done()
            assert mgr.sharding_stats.gate_waits == 1
            await mgr.commit(reader)
            # Only the commit's "finish" notification can open the gate.
            await asyncio.wait_for(commit_task, timeout=5.0)
            assert writer.state is SessionState.COMMITTED
            await mgr.shutdown()

        run(body())

    def test_gate_opens_on_abort_without_sweep_timer(self):
        async def body():
            mgr = make_manager()
            writer = await mgr.begin("W")
            await mgr.write(writer, "b", "new")
            await mgr.write(writer, "f", "new")
            reader = await mgr.begin("R")
            await mgr.read(reader, "b")
            commit_task = asyncio.ensure_future(mgr.commit(writer))
            await settle()
            assert not commit_task.done()
            await mgr.abort(reader, "client")
            await asyncio.wait_for(commit_task, timeout=5.0)
            assert writer.state is SessionState.COMMITTED
            await mgr.shutdown()

        run(body())

    def test_gate_park_time_lands_in_gate_histogram(self):
        async def body():
            mgr = make_manager()
            writer = await mgr.begin("W")
            await mgr.write(writer, "b", "new")
            await mgr.write(writer, "f", "new")
            reader = await mgr.begin("R")
            await mgr.read(reader, "b")
            commit_task = asyncio.ensure_future(mgr.commit(writer))
            await settle()
            await mgr.commit(reader)
            await asyncio.wait_for(commit_task, timeout=5.0)
            # The park is accounted separately from shard lock waits …
            assert mgr.sharding_stats.gate_wait.total == 1
            assert mgr.sharding_stats.guard_wait.total == 0
            doc = mgr.stats_document()
            assert doc["coordinator"]["gate_wait"]["total"] == 1
            # … and no longer folded into the merged lock_wait histogram
            # (no shard-side lock denial happened in this scenario).
            assert doc["lock_wait"]["total"] == 0
            await mgr.shutdown()

        run(body())


class TestGuardWakeupOnNotification:
    def test_guard_lifts_on_predecessor_finish_without_sweep_timer(self):
        async def body():
            # B ≺ A recorded on shard 1 only; A's read of a on shard 0
            # must park at the coordinator guard until B finishes — woken
            # by B's terminal notification.
            a = TransactionSpec("A", (write("e", 1.0), read("a", 1.0)))
            b = TransactionSpec("B", (read("e", 1.0), write("a", 1.0)))
            mgr = ShardedLockManager(
                assign_by_order([b, a]), "pcp-da",
                shards=2, partitioner="range",
            )
            sa = await mgr.begin("A")
            await mgr.write(sa, "e", "a-val")
            sb = await mgr.begin("B")
            await mgr.read(sb, "e")
            await mgr.write(sb, "a", "b-val")
            read_task = asyncio.ensure_future(mgr.read(sa, "a"))
            await settle()
            assert not read_task.done()
            assert mgr.sharding_stats.guard_waits == 1
            await mgr.commit(sb)
            value = await asyncio.wait_for(read_task, timeout=5.0)
            assert value == "b-val"
            assert mgr.sharding_stats.guard_wait.total == 1
            await mgr.commit(sa)
            await mgr.shutdown()

        run(body())


class TestEventDrivenDeadlockDetection:
    def test_cross_shard_deadlock_found_without_sweep_timer(self):
        async def body():
            # The cycle exists only in the union of the two shards'
            # wait-for edges; each new wait schedules a coalesced
            # deadlock pass, so detection needs no timer.
            t1 = TransactionSpec("T1", (write("a", 1.0), write("e", 1.0)))
            t2 = TransactionSpec("T2", (write("e", 1.0), write("a", 1.0)))
            mgr = ShardedLockManager(
                assign_by_order([t1, t2]), "rw-pcp",
                shards=2, partitioner="range",
            )
            s1 = await mgr.begin("T1")
            s2 = await mgr.begin("T2")
            await mgr.write(s1, "a", 1)
            await mgr.write(s2, "e", 2)
            blocked_1 = asyncio.ensure_future(mgr.write(s1, "e", 1))
            await settle()
            blocked_2 = asyncio.ensure_future(mgr.write(s2, "a", 2))
            outcomes = await asyncio.wait_for(
                asyncio.gather(blocked_1, blocked_2, return_exceptions=True),
                timeout=5.0,
            )
            aborted = [o for o in outcomes
                       if isinstance(o, TransactionAborted)]
            assert len(aborted) == 1
            assert "cross-shard deadlock victim" in str(aborted[0])
            assert mgr.sharding_stats.cross_shard_deadlocks == 1
            await mgr.commit(s1)
            await mgr.shutdown()

        run(body())


class TestPartialRedecide:
    """The grant queue re-decides only churn-affected waiters."""

    @staticmethod
    def catalog_disjoint() -> TaskSet:
        # Readers outrank writers so running priorities stay put and the
        # only re-decide triggers are item churn and blamed-job churn.
        ra = TransactionSpec("RA", (read("a", 1.0),))
        rb = TransactionSpec("RB", (read("b", 1.0),))
        wa = TransactionSpec("WA", (write("a", 1.0),))
        wb = TransactionSpec("WB", (write("b", 1.0),))
        return assign_by_order([ra, rb, wa, wb])

    def test_release_redecides_only_waiters_on_churned_item(
        self, monkeypatch
    ):
        async def body():
            mgr = LockManager(self.catalog_disjoint(), "pcp-da")
            ra = await mgr.begin("RA")
            rb = await mgr.begin("RB")
            await mgr.read(ra, "a")
            await mgr.read(rb, "b")
            wa = await mgr.begin("WA")
            wb = await mgr.begin("WB")
            blocked_a = asyncio.ensure_future(mgr.write(wa, "a", 1))
            blocked_b = asyncio.ensure_future(mgr.write(wb, "b", 2))
            await settle()
            assert wa.state is SessionState.WAITING
            assert wb.state is SessionState.WAITING

            # Every drain pass is one Kernel.decide_batch call over the
            # candidates it selected, in queue order.
            decided = []
            inner = Kernel.decide_batch

            def recording(kernel, requests, pre_decide, on_deny):
                decided.extend(job.name for job, *_ in requests)
                return inner(kernel, requests, pre_decide, on_deny)

            monkeypatch.setattr(Kernel, "decide_batch", recording)
            # RA's commit churns item a and job RA: WA is a candidate on
            # both counts; WB (parked on b, blaming RB) is untouched and
            # must not be re-decided.
            await mgr.commit(ra)
            await asyncio.wait_for(blocked_a, timeout=5.0)
            assert set(decided) == {"WA#0"}
            assert wb.state is SessionState.WAITING
            assert not blocked_b.done()

            decided.clear()
            await mgr.commit(rb)
            await asyncio.wait_for(blocked_b, timeout=5.0)
            assert set(decided) == {"WB#0"}
            await mgr.commit(wa)
            await mgr.commit(wb)
            await mgr.shutdown()

        run(body())

    def test_item_waiter_index_tracks_parks(self):
        async def body():
            mgr = LockManager(self.catalog_disjoint(), "pcp-da")
            ra = await mgr.begin("RA")
            await mgr.read(ra, "a")
            wa = await mgr.begin("WA")
            blocked = asyncio.ensure_future(mgr.write(wa, "a", 1))
            await settle()
            assert wa in mgr._item_parks["a"]
            await mgr.commit(ra)
            await asyncio.wait_for(blocked, timeout=5.0)
            assert "a" not in mgr._item_parks  # unindexed on grant
            await mgr.commit(wa)
            await mgr.shutdown()

        run(body())


class TestTransitivePredsMemo:
    @staticmethod
    def catalog_rw() -> TaskSet:
        r = TransactionSpec("R", (read("x", 1.0),))
        w = TransactionSpec("W", (write("x", 1.0),))
        return assign_by_order([r, w])  # R outranks W → read passes

    def test_memo_invalidated_on_edge_add_and_drop(self):
        async def body():
            mgr = LockManager(self.catalog_rw(), "pcp-da")
            graph = mgr.constraints
            sw = await mgr.begin("W")
            await mgr.write(sw, "x", 1)
            sr = await mgr.begin("R")
            # Prime the memo before any constraint exists.
            primed = graph.preds(sw.job)
            assert primed == set()
            assert graph.preds(sw.job) is primed
            # The LC3/LC4 read past W's write lock adds R ≺ W — the add
            # must dirty the whole cache …
            await mgr.read(sr, "x")
            memo = graph.preds(sw.job)
            assert memo == {sr.job} and memo is not primed
            assert graph.preds(sw.job) is memo
            # … and R's terminal transition drops the edge, dirtying it
            # again.
            await mgr.commit(sr)
            assert graph.preds(sw.job) == set()
            await mgr.commit(sw)
            await mgr.shutdown()

        run(body())

    def test_repeated_read_past_same_writer_is_not_announced_twice(self):
        """R ≺ W is recorded by R's first read past W's write locks; the
        second such read finds the edge, so it neither dirties the memo
        nor sends a second ``constraint`` notification (an event frame
        per pair on a shard host)."""
        r = TransactionSpec("R", (read("x", 1.0), read("y", 1.0)))
        w = TransactionSpec("W", (write("x", 1.0), write("y", 1.0)))

        async def body():
            mgr = LockManager(assign_by_order([r, w]), "pcp-da")
            announced = []
            mgr.churn_listeners.append(
                lambda kind, job, other: kind == "constraint"
                and announced.append((job.name, other.name))
            )
            sw = await mgr.begin("W")
            await mgr.write(sw, "x", 1)
            await mgr.write(sw, "y", 2)
            sr = await mgr.begin("R")
            await mgr.read(sr, "x")
            memo = mgr.constraints.preds(sw.job)
            await mgr.read(sr, "y")
            assert announced == [(sr.name, sw.name)]
            assert mgr.constraints.preds(sw.job) is memo
            await mgr.commit(sr)
            await mgr.commit(sw)
            await mgr.shutdown()

        run(body())

