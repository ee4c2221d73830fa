"""Tests for the lock-manager runtime (repro.service.manager).

Everything here is in-process and socket-free (``make verify-service``
tier): sessions are driven through :class:`LockManager` directly or via
the in-process client, with explicit interleavings built from bare
``asyncio`` tasks — the suite must not depend on pytest-asyncio.
"""

import asyncio
import hashlib
import random
import time

import pytest

from repro.db.serializability import check_serializable, check_serializable_fast
from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    ServiceError,
    SessionStateError,
    SpecificationError,
    TransactionAborted,
)
from repro.model.priorities import assign_by_order
from repro.model.spec import TaskSet, TransactionSpec, read, write
from repro.service import LockManager, ServiceConfig, ShardedLockManager
from repro.service.manager import SERVED_PROTOCOLS, SessionState
from repro.service.park import ParkKind
from repro.verify.stress import StressSpec, make_catalog


def catalog_rw() -> TaskSet:
    """T1 (highest) reads x; T2 writes x; T3 reads x and writes y."""
    t1 = TransactionSpec("T1", (read("x", 1.0),))
    t2 = TransactionSpec("T2", (write("x", 1.0),))
    t3 = TransactionSpec("T3", (read("x", 1.0), write("y", 1.0)))
    return assign_by_order([t1, t2, t3])


def run(coro):
    """Run one async test body on a fresh event loop."""
    return asyncio.run(coro)


async def settle(steps: int = 5) -> None:
    """Let every ready callback on the loop run."""
    for _ in range(steps):
        await asyncio.sleep(0)


class TestSessionLifecycle:
    def test_begin_read_write_commit(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            session = await manager.begin("T3")
            assert session.state is SessionState.ACTIVE
            value = await manager.read(session, "x")
            assert value is None  # unwritten item: initial version
            await manager.write(session, "y", 41)
            summary = await manager.commit(session)
            assert summary["installed"] == ["y"]
            assert session.state is SessionState.COMMITTED
            assert manager.db.read_committed("y").value == 41
            check_serializable(manager.history)

        run(body())

    def test_instance_names_count_up(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            first = await manager.begin("T1")
            second = await manager.begin("T1")
            assert (first.name, second.name) == ("T1#0", "T1#1")

        run(body())

    def test_read_own_buffered_write(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            session = await manager.begin("T3")
            await manager.write(session, "y", "mine")
            assert await manager.read(session, "y") == "mine"
            # The buffered value is invisible to others until commit.
            assert manager.db.read_committed("y").value is None
            await manager.commit(session)

        run(body())

    def test_rereads_are_stable(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            session = await manager.begin("T1")
            first = await manager.read(session, "x")
            again = await manager.read(session, "x")
            assert first == again
            # One history event: the re-read observed the bound version.
            reads = [e for e in manager.history if e.job == "T1#0"]
            assert len(reads) == 1
            await manager.commit(session)

        run(body())

    def test_abort_discards_workspace(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            session = await manager.begin("T2")
            await manager.write(session, "x", "discarded")
            await manager.abort(session, "client")
            assert session.state is SessionState.ABORTED
            assert manager.db.read_committed("x").value is None

        run(body())

    def test_operations_after_commit_rejected(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            session = await manager.begin("T1")
            await manager.commit(session)
            with pytest.raises(SessionStateError):
                await manager.read(session, "x")
            with pytest.raises(SessionStateError):
                await manager.abort(session)

        run(body())

    def test_access_outside_declared_sets_rejected(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            session = await manager.begin("T1")
            with pytest.raises(SessionStateError):
                await manager.read(session, "y")  # T1 only declares x
            with pytest.raises(SessionStateError):
                await manager.write(session, "x", 1)  # read set only

        run(body())

    def test_unknown_transaction_and_session(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            with pytest.raises(SpecificationError):
                await manager.begin("T9")
            with pytest.raises(SessionStateError):
                manager.session(404)

        run(body())


class TestServedProtocols:
    @pytest.mark.parametrize("protocol", SERVED_PROTOCOLS)
    def test_commit_installs_the_workspace(self, protocol):
        # RW-PCP and PCP declare in-place installs for the simulator; the
        # service installs every served protocol's writes at commit.
        async def body():
            manager = LockManager(catalog_rw(), protocol)
            writer = await manager.begin("T2")
            await manager.write(writer, "x", 42)
            summary = await manager.commit(writer)
            assert summary["installed"] == ["x"]
            reader = await manager.begin("T1")
            assert await manager.read(reader, "x") == 42
            await manager.commit(reader)
            rows = [(r["kind"], r["job"], r["item"])
                    for r in manager.history_events()]
            assert ("install", "T2#0", "x") in rows
            check_serializable(manager.history)

        run(body())

    @pytest.mark.parametrize("protocol", ["ipcp", "ccp", "2pl-hp", "occ-bc"])
    def test_other_protocols_are_rejected_naming_the_set(self, protocol):
        with pytest.raises(SpecificationError) as excinfo:
            LockManager(catalog_rw(), protocol)
        assert all(name in str(excinfo.value) for name in SERVED_PROTOCOLS)


class TestAdmissionAndShutdown:
    def test_max_sessions_backpressure(self):
        async def body():
            manager = LockManager(
                catalog_rw(), "pcp-da", ServiceConfig(max_sessions=2)
            )
            a = await manager.begin("T1")
            await manager.begin("T2")
            with pytest.raises(AdmissionError):
                await manager.begin("T3")
            await manager.commit(a)  # freeing a slot reopens admission
            await manager.begin("T3")
            assert manager.stats.sessions_rejected == 1

        run(body())

    def test_shutdown_aborts_live_sessions(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            session = await manager.begin("T2")
            await manager.write(session, "x", 1)
            await manager.shutdown()
            assert session.state is SessionState.ABORTED
            with pytest.raises(ServiceError):
                await manager.begin("T1")

        run(body())


class TestDeadlines:
    def test_expired_deadline_aborts_at_next_op(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            session = await manager.begin("T1", deadline_s=0.001)
            await asyncio.sleep(0.01)
            with pytest.raises(DeadlineExceeded):
                await manager.read(session, "x")
            assert session.state is SessionState.ABORTED
            assert manager.stats.deadline_aborts == 1

        run(body())

    def test_deadline_fires_while_parked_in_grant_queue(self):
        async def body():
            manager = LockManager(catalog_rw(), "rw-pcp")
            writer = await manager.begin("T2")
            await manager.write(writer, "x", 1)
            reader = await manager.begin("T1", deadline_s=0.02)
            with pytest.raises(
                DeadlineExceeded,
                match=r"^T1#0: deadline passed waiting for read\(x\)$",
            ):
                await manager.read(reader, "x")
            assert reader.state is SessionState.ABORTED
            assert not manager.parks  # queue entry cleaned up
            await manager.commit(writer)

        run(body())

    def test_grant_before_deadline_stands_when_the_waiter_resumes_late(self):
        async def body():
            manager = LockManager(catalog_rw(), "rw-pcp")
            writer = await manager.begin("T2")
            await manager.write(writer, "x", "w")
            reader = await manager.begin("T1", deadline_s=0.05)
            task = asyncio.ensure_future(manager.read(reader, "x"))
            await settle()
            assert reader.state is SessionState.WAITING
            await manager.commit(writer)  # the grant lands in time ...
            assert not manager.parks
            time.sleep(0.1)  # ... and the reader resumes past its deadline
            assert await task == "w"
            assert reader.state is SessionState.ACTIVE
            assert manager.stats.deadline_aborts == 0
            # The deadline is enforced at the next operation instead.
            with pytest.raises(DeadlineExceeded, match="before the operation"):
                await manager.commit(reader)

        run(body())


class TestGrantQueue:
    def test_conflicting_read_waits_for_writer_under_rw_pcp(self):
        async def body():
            manager = LockManager(catalog_rw(), "rw-pcp")
            writer = await manager.begin("T2")
            await manager.write(writer, "x", "w")
            reader = await manager.begin("T1")
            task = asyncio.ensure_future(manager.read(reader, "x"))
            await settle()
            assert reader.state is SessionState.WAITING
            assert not task.done()
            await manager.commit(writer)
            value = await task
            assert value == "w"  # observed the committed install
            await manager.commit(reader)
            check_serializable(manager.history)

        run(body())

    def test_queue_wakes_in_priority_order(self):
        async def body():
            t1 = TransactionSpec("T1", (read("x", 1.0),))
            t2 = TransactionSpec("T2", (read("x", 1.0),))
            t3 = TransactionSpec("T3", (write("x", 1.0),))
            manager = LockManager(assign_by_order([t1, t2, t3]), "rw-pcp")
            holder = await manager.begin("T3")
            await manager.write(holder, "x", 1)
            low = await manager.begin("T2")
            high = await manager.begin("T1")
            order = []

            async def request(session, tag):
                await manager.read(session, "x")
                order.append(tag)

            low_task = asyncio.ensure_future(request(low, "low"))
            await settle()
            high_task = asyncio.ensure_future(request(high, "high"))
            await settle()
            await manager.commit(holder)
            await asyncio.gather(low_task, high_task)
            assert order == ["high", "low"]

        run(body())

    @pytest.mark.parametrize("shards", [1, 2])
    def test_one_inflight_operation_per_session(self, shards):
        async def body():
            if shards == 1:
                manager = LockManager(catalog_rw(), "rw-pcp")
            else:
                manager = ShardedLockManager(
                    catalog_rw(), "rw-pcp", shards=shards
                )
            writer = await manager.begin("T2")
            await manager.write(writer, "x", 1)
            reader = await manager.begin("T1")
            task = asyncio.ensure_future(manager.read(reader, "x"))
            await settle()
            with pytest.raises(SessionStateError, match="in-flight"):
                await manager.read(reader, "x")
            with pytest.raises(SessionStateError, match="waiting"):
                await manager.abort(reader)
            await manager.commit(writer)
            await task
            await manager.commit(reader)

        run(body())

    def test_abort_between_grant_and_resume_wins(self):
        async def body():
            manager = LockManager(catalog_rw(), "rw-pcp")
            writer = await manager.begin("T2")
            await manager.write(writer, "x", "w")
            reader = await manager.begin("T1")
            task = asyncio.ensure_future(manager.read(reader, "x"))
            await settle()
            await manager.commit(writer)  # the read is granted ...
            manager.force_abort(reader, "victim")  # ... before it resumes
            with pytest.raises(TransactionAborted, match="victim"):
                await task
            assert not manager.table.items_held_by(reader.job)
            rows = [e.kind.value for e in manager.history
                    if e.job == reader.name]
            assert rows == ["abort"]

        run(body())

    def test_cancelled_waiter_is_torn_down(self):
        async def body():
            manager = LockManager(catalog_rw(), "rw-pcp")
            writer = await manager.begin("T2")
            await manager.write(writer, "x", 1)
            reader = await manager.begin("T1")
            task = asyncio.ensure_future(manager.read(reader, "x"))
            await settle()
            task.cancel()
            await settle()
            assert reader.state is SessionState.ABORTED
            assert not manager.parks
            await manager.commit(writer)

        run(body())


class TestSerializationOrderEnforcement:
    """PCP-DA reads past write locks; the service must keep the adjusted
    order honest under true concurrency (module docstring of service/core.py)."""

    def test_read_past_write_lock_is_granted(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            writer = await manager.begin("T2")
            await manager.write(writer, "x", "new")
            reader = await manager.begin("T1")
            value = await manager.read(reader, "x")  # LC3: no wait
            assert value is None  # committed version, not the buffer
            assert reader.state is SessionState.ACTIVE
            return manager, writer, reader

        async def full():
            manager, writer, reader = await body()
            await manager.commit(reader)
            await manager.commit(writer)
            check_serializable(manager.history)

        run(full())

    def test_writer_commit_gated_until_passing_reader_finishes(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            writer = await manager.begin("T2")
            await manager.write(writer, "x", "new")
            reader = await manager.begin("T1")
            await manager.read(reader, "x")  # reader ≺ writer now
            commit_task = asyncio.ensure_future(manager.commit(writer))
            await settle()
            assert not commit_task.done()  # parked at the commit gate
            assert writer.state is SessionState.WAITING
            await manager.commit(reader)
            await commit_task
            assert writer.state is SessionState.COMMITTED
            graph = check_serializable(manager.history)
            order = graph.topological_order()
            assert order.index("T1#0") < order.index("T2#0")

        run(body())

    def test_gate_opens_on_reader_abort_too(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            writer = await manager.begin("T2")
            await manager.write(writer, "x", "new")
            reader = await manager.begin("T1")
            await manager.read(reader, "x")
            commit_task = asyncio.ensure_future(manager.commit(writer))
            await settle()
            assert not commit_task.done()
            await manager.abort(reader, "client")
            await commit_task
            assert writer.state is SessionState.COMMITTED
            check_serializable(manager.history)

        run(body())

    def test_abort_between_gate_wake_and_resume_wins(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            writer = await manager.begin("T2")
            await manager.write(writer, "x", "new")
            reader = await manager.begin("T1")
            await manager.read(reader, "x")
            commit_task = asyncio.ensure_future(manager.commit(writer))
            await settle()
            await manager.commit(reader)  # wakes the writer's gate ...
            manager.force_abort(writer, "victim")  # ... before it resumes
            with pytest.raises(TransactionAborted, match="victim"):
                await commit_task
            assert writer.state is SessionState.ABORTED
            rows = [e.kind.value for e in manager.history
                    if e.job == writer.name]
            assert rows == ["abort"]
            assert manager.db.read_committed("x").value is None

        run(body())

    def test_order_guard_blocks_read_of_predecessor_write_set(self):
        async def body():
            # T3 reads x past T1... need T3 ≺ W and W wants to read an
            # item in T3's write set.  Build a dedicated catalog:
            #   A writes x, reads y;  B reads x, writes y.
            a = TransactionSpec("A", (write("x", 1.0), read("y", 1.0)))
            b = TransactionSpec("B", (read("x", 1.0), write("y", 1.0)))
            manager = LockManager(assign_by_order([b, a]), "pcp-da")
            writer = await manager.begin("A")
            await manager.write(writer, "x", 1)
            reader = await manager.begin("B")
            await manager.read(reader, "x")      # B ≺ A recorded
            await manager.write(reader, "y", 2)  # B write-locks y
            # A reading y would observe state serialized *after* B begins
            # installing — the order guard must hold it back.
            read_task = asyncio.ensure_future(manager.read(writer, "y"))
            await settle()
            assert not read_task.done()
            assert manager.parks[writer].kind is ParkKind.ORDER_GUARD
            await manager.commit(reader)
            value = await read_task  # guard lifts once B finishes
            assert value == 2
            await manager.commit(writer)
            graph = check_serializable(manager.history)
            order = graph.topological_order()
            assert order.index("B#0") < order.index("A#0")

        run(body())

    def test_gate_cycle_resolved_by_victim_abort(self):
        async def body():
            # Crossed ≺ constraints cannot be built from LC3 alone in a
            # deterministic two-transaction script (each pass needs the
            # reader's priority above the writer's, and the footnote
            # closes the symmetric shapes), but concurrent timing races
            # can still produce them transitively.  Inject that state
            # directly and check the resolution machinery: both commits
            # gate on each other, the cycle is detected as service-level,
            # and the lowest-priority member is aborted.
            a = TransactionSpec("A", (write("x", 1.0), read("y", 1.0)))
            b = TransactionSpec("B", (read("x", 1.0), write("y", 1.0)))
            manager = LockManager(assign_by_order([a, b]), "pcp-da")
            sa = await manager.begin("A")
            sb = await manager.begin("B")
            await manager.write(sa, "x", 1)
            await manager.write(sb, "y", 2)
            assert manager.constraints.add(sb.job, sa.job)
            assert manager.constraints.add(sa.job, sb.job)
            commit_a = asyncio.ensure_future(manager.commit(sa))
            await settle()
            commit_b = asyncio.ensure_future(manager.commit(sb))
            results = await asyncio.gather(
                commit_a, commit_b, return_exceptions=True
            )
            # B has the lower base priority → B is the victim.
            assert isinstance(results[1], TransactionAborted)
            assert isinstance(results[0], dict)
            assert manager.stats.deadlocks == 1
            check_serializable(manager.history)

        run(body())

    def test_constraints_dropped_when_sessions_finish(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            writer = await manager.begin("T2")
            await manager.write(writer, "x", 1)
            reader = await manager.begin("T1")
            await manager.read(reader, "x")
            assert manager.constraints
            assert manager.constraints.direct_preds(writer.job) == {
                reader.job
            }
            await manager.commit(reader)
            await manager.commit(writer)
            assert not manager.constraints
            assert not manager.parks

        run(body())


class TestIntrospection:
    def test_stats_document_gauges(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            session = await manager.begin("T1")
            doc = manager.stats_document()
            assert doc["live_sessions"] == 1
            assert doc["protocol"] == "pcp-da"
            assert doc["uptime_s"] >= 0
            await manager.commit(session)

        run(body())

    def test_history_events_replayable(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            session = await manager.begin("T3")
            await manager.read(session, "x")
            await manager.write(session, "y", 9)
            await manager.commit(session)
            rows = manager.history_events()
            assert [r["kind"] for r in rows] == ["read", "install", "commit"]
            assert all(r["job"] == "T3#0" for r in rows)

        run(body())


class TestServiceConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(SpecificationError):
            ServiceConfig(max_sessions=0)
        with pytest.raises(SpecificationError):
            ServiceConfig(default_deadline_s=0.0)


# The benchmark suite's two catalog shapes (benchmarks/suite/README.md).
_WIDE = StressSpec(seed=1, txn_types=32, items=512, min_ops=3, max_ops=6,
                   write_probability=0.1, zipf_s=0.0)
_HOT = StressSpec(seed=1, txn_types=8, items=24, min_ops=2, max_ops=5,
                  write_probability=0.3, zipf_s=1.1)


class TestLiveSessionScale:
    """Many live sessions: the wait-graph bookkeeping is incremental
    (reverse adjacency, stale-blocker marks, edge-local cycle check), and
    none of it may move a decision or a priority change."""

    @staticmethod
    async def _replay(spec, protocol, clients, per_client, seed=7):
        """``clients`` interleaved closed-loop clients, yielding between
        operations.  No clocks or deadlines are involved, so the
        interleaving — and with it every decision — is a function of the
        seed alone."""
        catalog = make_catalog(spec)
        manager = LockManager(
            catalog, protocol, ServiceConfig(max_sessions=512)
        )
        decisions = []
        manager.decision_listeners.append(lambda e: decisions.append(
            (e.job, e.item, e.mode.value, e.outcome.value, e.rule, e.blockers)
        ))
        priorities = []
        manager.priority_listeners.append(lambda job: priorities.append(
            (job.name, job.running_priority)
        ))
        names = list(catalog.names)
        counts = {"begun": 0, "committed": 0, "aborted": 0}
        live_peak = 0

        async def client(index):
            nonlocal live_peak
            rng = random.Random(f"{seed}:{index}")
            for _ in range(per_client):
                name = rng.choice(names)
                session = await manager.begin(name)
                counts["begun"] += 1
                live_peak = max(live_peak, len(manager.live_sessions()))
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

        await asyncio.gather(*(client(i) for i in range(clients)))
        check_serializable_fast(manager.history)
        stats = manager.stats_document()
        assert stats["live_sessions"] == stats["waiting_sessions"] == 0
        assert counts["begun"] == stats["sessions_started"]
        assert counts["begun"] == counts["committed"] + counts["aborted"]
        assert counts["committed"] == stats["commits"]
        assert not manager.waits.waiters()
        manager.waits.self_check()
        manager.kernel.self_check()
        await manager.shutdown()
        digest = hashlib.sha256(
            repr((decisions, priorities)).encode()
        ).hexdigest()
        return digest, stats, live_peak, len(priorities)

    # All six digests are independent of PYTHONHASHSEED.  The rw-pcp and
    # pcp digests were recorded before the grant queue dropped its
    # item→parks index, and neither protocol records a ≺-constraint, so
    # they have never moved.  The pcp-da digests were re-pinned when a
    # parked commit gate became re-checked only at a predecessor's
    # terminal (rather than woken by every terminal and re-parked): that
    # moves when gated commits resume, so it moves the later decisions
    # and priority changes too.
    @pytest.mark.parametrize("spec, protocol, clients, per_client, digest", [
        (_WIDE, "pcp-da", 128, 6,
         "86417d6eae5a9fa3f962f5ccab24ec8307126d4b080ffdabebaf64aa8e760969"),
        (_HOT, "pcp-da", 32, 40,
         "6a8029290def93c297e1e92816d888d346c553f9d922037315913de79d3d639d"),
        (_WIDE, "rw-pcp", 128, 6,
         "157f5f1f0578f1fdefe23544096900910d11fb5102df22a62410a204862fb4ad"),
        (_HOT, "rw-pcp", 32, 40,
         "3e9f46961b7ee83f37d8c0a6d009baad55acfc4a9de714563bdeb47a630e8a76"),
        (_WIDE, "pcp", 128, 6,
         "ff2f5603aaeb35c194f55b7a4d2d7bd79381f964ebcd00088deca44092703ffe"),
        (_HOT, "pcp", 32, 40,
         "105e22c14a47d7c245ca1c1d083e7fa4bdc516d7e2ba5711e472f5ea0edaeaf2"),
    ], ids=["wide-c128", "hot-c32", "rw-pcp-wide-c128", "rw-pcp-hot-c32",
            "pcp-wide-c128", "pcp-hot-c32"])
    def test_decisions_and_priority_changes_are_pinned(
        self, spec, protocol, clients, per_client, digest
    ):
        got, stats, live_peak, priority_changes = run(
            self._replay(spec, protocol, clients, per_client)
        )
        assert live_peak == clients
        assert stats["denials"] > 0 and priority_changes > 0
        assert got == digest

    def test_unmoved_blame_is_not_announced(self):
        """A re-denial that names the same blockers is not churn: remote
        wait-graph mirrors and the cross-shard deadlock pass hear about a
        waiter only when its edges move."""
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            waits = []
            manager.churn_listeners.append(
                lambda kind, job, other: kind == "wait"
                and waits.append(job.name)
            )
            holder = await manager.begin("T3")
            await manager.read(holder, "x")
            other = await manager.begin("T1")
            await manager.read(other, "x")
            writer = await manager.begin("T2")
            parked = asyncio.ensure_future(manager.write(writer, "x", 1))
            await settle()
            assert waits == ["T2#0"]
            waiter = manager.parks[writer]
            assert waiter.blockers == (holder.job, other.job)
            # Re-decide with nothing released: same blame, no notification.
            manager._churn_waiters.add(writer.job)
            manager._service_grant_queue()
            assert waits == ["T2#0"]
            await manager.commit(holder)        # blame moves to (other,)
            assert waiter.blockers == (other.job,)
            await manager.commit(other)
            await parked
            await manager.commit(writer)

        run(body())
