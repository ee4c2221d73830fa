"""Tests for the shard coordinator (repro.service.sharding.coordinator).

All in-process and socket-free (``make verify-sharding`` tier): shards
and the coordinator are driven directly or through the in-process wire
client, with explicit interleavings built from bare ``asyncio`` tasks —
no pytest-asyncio.  The catalogs are hand-built so that every routing,
gate, and guard decision is forced, not probabilistic: a range
partitioner over a known item universe makes each item's owning shard
part of the test's arithmetic.
"""

import asyncio

import pytest

from repro.db.serializability import check_serializable
from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    SessionStateError,
    SpecificationError,
    TransactionAborted,
)
from repro.model.priorities import assign_by_order
from repro.model.spec import TaskSet, TransactionSpec, read, write
from repro.service import (
    LoadgenConfig,
    LockManager,
    ServiceConfig,
    ShardedLockManager,
    in_process_client,
    run_loadgen,
)
from repro.service.loadgen import history_from_events
from repro.service.manager import SessionState
from repro.service.park import ParkKind
from repro.service.stats import ServiceStats
from repro.verify.stress import StressSpec, make_catalog


def catalog_two_shards() -> TaskSet:
    """Items {a, b} land on shard 0, {f} on shard 1 (range over 2).

    R (highest) reads b; RF reads f and writes a (cross-shard); W
    (lowest) writes b and f — the canonical passable writer.
    """
    r = TransactionSpec("R", (read("b", 1.0),))
    rf = TransactionSpec("RF", (read("f", 1.0), write("a", 1.0)))
    w = TransactionSpec("W", (write("b", 1.0), write("f", 1.0)))
    return assign_by_order([r, rf, w])


def make_manager(**kwargs) -> ShardedLockManager:
    """A 2-shard range-partitioned manager over the canonical catalog."""
    kwargs.setdefault("shards", 2)
    kwargs.setdefault("partitioner", "range")
    catalog = kwargs.pop("catalog", None) or catalog_two_shards()
    config = kwargs.pop("config", None)
    return ShardedLockManager(catalog, "pcp-da", config, **kwargs)


def manager_for(shards: int):
    """The unsharded manager (1) or the 2-shard one, same catalog."""
    if shards == 1:
        return LockManager(catalog_two_shards(), "pcp-da")
    return make_manager(shards=shards)


def run(coro):
    """Run one async test body on a fresh event loop."""
    return asyncio.run(coro)


async def settle(steps: int = 5) -> None:
    """Let every ready callback on the loop run."""
    for _ in range(steps):
        await asyncio.sleep(0)


class TestSpanAndRouting:
    def test_span_classifies_local_vs_global(self):
        async def body():
            mgr = make_manager()
            local = await mgr.begin("R")
            assert local.span == frozenset({0})
            assert local.scope == "local"
            cross = await mgr.begin("W")
            assert cross.span == frozenset({0, 1})
            assert cross.scope == "global"
            assert mgr.sharding_stats.local_sessions == 1
            assert mgr.sharding_stats.cross_shard_sessions == 1
            await mgr.shutdown()

        run(body())

    def test_writes_install_on_owning_shard_only(self):
        async def body():
            mgr = make_manager()
            session = await mgr.begin("W")
            await mgr.write(session, "b", "b-val")
            await mgr.write(session, "f", "f-val")
            assert sorted(session.legs) == [0, 1]
            summary = await mgr.commit(session)
            assert summary["installed"] == ["b", "f"]
            assert summary["shards"] == [0, 1]
            assert mgr.shards[0].db.read_committed("b").value == "b-val"
            assert mgr.shards[1].db.read_committed("f").value == "f-val"
            # The non-owning shard never saw the other item's install.
            assert mgr.shards[1].db.read_committed("b").value is None
            assert mgr.shards[0].db.read_committed("f").value is None
            assert mgr.sharding_stats.cross_shard_commits == 1
            await mgr.shutdown()

        run(body())

    def test_single_leg_commit_takes_fast_path(self):
        async def body():
            mgr = make_manager()
            # W's *span* is global, but this instance only ever touches
            # shard 0 — commit must delegate to the home shard, no gate.
            session = await mgr.begin("W")
            await mgr.write(session, "b", 1)
            summary = await mgr.commit(session)
            assert summary["shards"] == [0]
            assert summary["installed"] == ["b"]
            assert mgr.sharding_stats.gate_waits == 0
            assert mgr.sharding_stats.cross_shard_commits == 0
            await mgr.shutdown()

        run(body())

    def test_zero_leg_commit(self):
        async def body():
            mgr = make_manager()
            session = await mgr.begin("R")
            summary = await mgr.commit(session)
            assert summary["installed"] == []
            assert summary["shards"] == []
            assert session.state is SessionState.COMMITTED
            assert mgr.stats.commits == 1
            await mgr.shutdown()

        run(body())

    def test_protocol_name_must_be_a_string(self):
        with pytest.raises(SpecificationError):
            ShardedLockManager(catalog_two_shards(), object())  # type: ignore[arg-type]

    def test_partitioner_shard_count_must_match(self):
        from repro.service.sharding import HashPartitioner

        with pytest.raises(SpecificationError):
            ShardedLockManager(
                catalog_two_shards(), "pcp-da", shards=2,
                partitioner=HashPartitioner(3),
            )


class TestGateAndGuard:
    def test_cross_shard_commit_gated_on_merged_predecessors(self):
        async def body():
            mgr = make_manager()
            writer = await mgr.begin("W")
            await mgr.write(writer, "b", "new")
            await mgr.write(writer, "f", "new")
            reader = await mgr.begin("R")
            # The read passes W's write lock on shard 0: R ≺ W recorded
            # in that shard's registry only.
            await mgr.read(reader, "b")
            commit_task = asyncio.ensure_future(mgr.commit(writer))
            await settle()
            # The *global* gate must see the shard-0 constraint even
            # though the commit also spans shard 1.
            assert not commit_task.done()
            assert writer.state is SessionState.WAITING
            assert mgr.sharding_stats.gate_waits == 1
            assert mgr.parks[writer].kind is ParkKind.COMMIT_GATE
            await mgr.commit(reader)
            await commit_task
            assert writer.state is SessionState.COMMITTED
            history = history_from_events(mgr.history_events())
            graph = check_serializable(history)
            order = graph.topological_order()
            assert order.index("R#0") < order.index("W#0")
            await mgr.shutdown()

        run(body())

    def test_gate_opens_on_predecessor_abort(self):
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
            await commit_task
            assert writer.state is SessionState.COMMITTED
            check_serializable(history_from_events(mgr.history_events()))
            await mgr.shutdown()

        run(body())

    def test_coordinator_guard_covers_remote_predecessors(self):
        async def body():
            # B ≺ A is recorded on shard 1 (B's read of e passes A's
            # write lock there); A then reads a on shard 0, where it has
            # no leg and shard 0 holds no constraint involving A at all.
            # Only the coordinator's merged graph can hold that read back
            # until B (which writes a) finishes.
            a = TransactionSpec("A", (write("e", 1.0), read("a", 1.0)))
            b = TransactionSpec("B", (read("e", 1.0), write("a", 1.0)))
            mgr = ShardedLockManager(
                assign_by_order([b, a]), "pcp-da",
                shards=2, partitioner="range",
            )
            sa = await mgr.begin("A")
            await mgr.write(sa, "e", "a-val")
            sb = await mgr.begin("B")
            await mgr.read(sb, "e")          # B ≺ A, shard 1 only
            await mgr.write(sb, "a", "b-val")
            read_task = asyncio.ensure_future(mgr.read(sa, "a"))
            await settle()
            assert not read_task.done()
            assert sa.state is SessionState.WAITING
            assert mgr.sharding_stats.guard_waits == 1
            assert mgr.parks[sa].kind is ParkKind.ORDER_GUARD
            await mgr.commit(sb)
            value = await read_task          # guard lifts with B gone
            assert value == "b-val"
            await mgr.commit(sa)
            history = history_from_events(mgr.history_events())
            order = check_serializable(history).topological_order()
            assert order.index("B#0") < order.index("A#0")
            await mgr.shutdown()

        run(body())

    def test_one_shard_guard_never_fires(self):
        async def body():
            # On a 1-shard deployment the remote remainder is empty by
            # construction: the same interleaving that parks at the
            # coordinator guard above must run entirely shard-side.
            mgr = make_manager(shards=1)
            writer = await mgr.begin("W")
            await mgr.write(writer, "b", "new")
            reader = await mgr.begin("R")
            await mgr.read(reader, "b")
            assert mgr.sharding_stats.guard_waits == 0
            commit_task = asyncio.ensure_future(mgr.commit(writer))
            await settle()
            # Parked *shard-side* at the local gate, not the global one.
            assert not commit_task.done()
            assert mgr.sharding_stats.gate_waits == 0
            await mgr.commit(reader)
            await commit_task
            await mgr.shutdown()

        run(body())


class TestFailurePaths:
    def test_shard_side_abort_cascades_to_all_legs(self):
        async def body():
            mgr = make_manager()
            session = await mgr.begin("W")
            await mgr.write(session, "b", 1)
            await mgr.write(session, "f", 2)
            # A shard kills the leg behind the coordinator's back (the
            # shape of a shard-local deadlock victim).
            mgr.shards[1].force_abort(session.legs[1], "test-injected")
            assert session.state is SessionState.ABORTED
            assert session.abort_reason.startswith("shard:")
            assert not session.legs[0].state.live  # sibling torn down too
            assert mgr.sharding_stats.cascade_aborts == 1
            with pytest.raises(SessionStateError):
                await mgr.read(session, "b")
            await mgr.shutdown()

        run(body())

    def test_deadline_enforced_by_coordinator(self):
        async def body():
            mgr = make_manager()
            session = await mgr.begin("W", deadline_s=0.01)
            await asyncio.sleep(0.03)
            with pytest.raises(DeadlineExceeded):
                await mgr.write(session, "b", 1)
            assert session.state is SessionState.ABORTED
            assert mgr.stats.deadline_aborts == 1
            await mgr.shutdown()

        run(body())

    def test_admission_cap_is_global(self):
        async def body():
            mgr = make_manager(config=ServiceConfig(max_sessions=1))
            await mgr.begin("R")
            with pytest.raises(AdmissionError):
                await mgr.begin("W")
            assert mgr.stats.sessions_rejected == 1
            await mgr.shutdown()

        run(body())

    def test_client_abort_releases_every_shard(self):
        async def body():
            mgr = make_manager()
            session = await mgr.begin("W")
            await mgr.write(session, "b", 1)
            await mgr.write(session, "f", 2)
            await mgr.abort(session, "client")
            assert session.state is SessionState.ABORTED
            assert mgr.stats.client_aborts == 1
            # Both shards released their locks: a fresh W sails through.
            again = await mgr.begin("W")
            await mgr.write(again, "b", 3)
            await mgr.write(again, "f", 4)
            await mgr.commit(again)
            assert mgr.shards[0].db.read_committed("b").value == 3
            await mgr.shutdown()

        run(body())

    def test_shutdown_aborts_live_sessions(self):
        async def body():
            mgr = make_manager()
            session = await mgr.begin("W")
            await mgr.write(session, "b", 1)
            await mgr.shutdown()
            assert session.state is SessionState.ABORTED
            with pytest.raises(Exception):
                await mgr.begin("R")

        run(body())

    def test_cross_shard_deadlock_resolved_by_victim_abort(self):
        async def body():
            # Per-shard ceilings: T1 locks a (shard 0) then wants e
            # (shard 1); T2 locks e then wants a.  Each shard sees one
            # harmless edge — the cycle exists only in the union, which
            # is exactly what the coordinator's deadlock pass checks.
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
            aborted = [o for o in outcomes if isinstance(o, TransactionAborted)]
            assert len(aborted) == 1
            assert "cross-shard deadlock victim" in str(aborted[0])
            assert mgr.sharding_stats.cross_shard_deadlocks == 1
            # Lowest base priority loses: T2 (assigned after T1).
            assert s2.state is SessionState.ABORTED
            await mgr.commit(s1)
            assert s1.state is SessionState.COMMITTED
            check_serializable(history_from_events(mgr.history_events()))
            await mgr.shutdown()

        run(body())


class TestObservability:
    def test_stats_document_shape_and_roundtrip(self):
        async def body():
            mgr = make_manager()
            session = await mgr.begin("W")
            await mgr.write(session, "b", 1)
            await mgr.write(session, "f", 2)
            await mgr.commit(session)
            doc = mgr.stats_document()
            assert doc["shard_count"] == 2
            assert doc["partitioner"] == "range"
            assert len(doc["shards"]) == 2
            # Session-level scalars come from the coordinator: one
            # commit, even though two legs committed shard-side.
            assert doc["commits"] == 1
            assert sum(e["commits"] for e in doc["shards"]) == 2
            assert doc["coordinator"]["cross_shard_commits"] == 1
            # Unsharded consumers must read the document unchanged.
            roundtrip = ServiceStats.from_dict(doc)
            assert roundtrip.commits == 1
            await mgr.shutdown()

        run(body())

    def test_stats_document_equals_the_live_shard_stats_merged(self):
        """The merged document is assembled from per-shard ``stats``
        documents; on a contended 4-shard run (the benchmark's hot
        catalog) it must equal the merge of the shards' live objects."""
        async def body():
            catalog = make_catalog(StressSpec(
                seed=1, txn_types=8, items=24, min_ops=2, max_ops=5,
                write_probability=0.3, zipf_s=1.1,
            ))
            mgr = ShardedLockManager(
                catalog, "pcp-da", shards=4, partitioner="hash",
            )

            async def connect():
                return in_process_client(mgr)

            report = await run_loadgen(
                LoadgenConfig(clients=8, transactions_per_client=30, seed=1),
                connect,
            )
            assert report.serializable
            doc = mgr.stats_document()
            live = [shard.stats for shard in mgr.shards]
            merged = ServiceStats()
            for stats in live:
                merged.merge(stats)
            assert merged.denials > 0  # contended: bands and waits non-trivial
            assert set(doc) == set(merged.to_dict()) | {
                "protocol", "uptime_s", "live_sessions", "waiting_sessions",
                "system_ceiling", "shard_count", "partitioner", "shards",
                "coordinator",
            }
            for key in ("grants", "denials", "deadlocks", "lock_wait"):
                assert doc[key] == merged.to_dict()[key], key
            # Each band's lock-level fields are the shards' union; its
            # commits and aborts are the coordinator's, counted once per
            # transaction however many shards it touched.
            assert len(doc["bands"]) == len(merged.bands)
            for entry, band in zip(doc["bands"], merged.bands):
                own = mgr.stats.band(band.priority)
                band.commits, band.aborts = own.commits, own.aborts
                assert entry == band.to_dict()
            assert doc["system_ceiling"] == max(
                shard.system_ceiling() for shard in mgr.shards
            )
            assert doc["waiting_sessions"] == len(mgr.parks) + sum(
                len(shard.parks) for shard in mgr.shards
            )
            for index, (entry, stats) in enumerate(zip(doc["shards"], live)):
                assert entry["shard"] == index
                assert (
                    entry["sessions"], entry["grants"], entry["denials"],
                    entry["commits"], entry["forced_aborts"],
                    entry["deadlocks"],
                ) == (
                    stats.sessions_started, stats.grants, stats.denials,
                    stats.commits, stats.forced_aborts, stats.deadlocks,
                )
                assert entry["commit_latency"] == stats.commit_latency.to_dict()
                assert entry["lock_wait"] == stats.lock_wait.to_dict()
            await mgr.shutdown()

        run(body())

    @pytest.mark.parametrize("shards", [1, 2])
    def test_bands_count_each_transaction_once(self, shards):
        async def body():
            mgr = manager_for(shards)
            done = await mgr.begin("W")  # writes on both shards
            await mgr.write(done, "b", 1)
            await mgr.write(done, "f", 2)
            await mgr.commit(done)
            dropped = await mgr.begin("W")
            await mgr.write(dropped, "b", 3)
            await mgr.write(dropped, "f", 4)
            await mgr.abort(dropped)
            doc = mgr.stats_document()
            assert (doc["commits"], doc["client_aborts"]) == (1, 1)
            bands = doc["bands"]
            assert sum(band["commits"] for band in bands) == doc["commits"]
            assert sum(band["aborts"] for band in bands) == (
                doc["client_aborts"] + doc["forced_aborts"]
            )
            await mgr.shutdown()

        run(body())

    @pytest.mark.parametrize("shards", [1, 2])
    def test_ping_and_topology_name_the_shards(self, shards):
        async def body():
            mgr = manager_for(shards)
            client = in_process_client(mgr)
            assert (await client.ping())["shards"] == shards
            topology = await client.topology()
            assert topology == mgr.topology_document()
            assert topology["shards"] == shards
            await mgr.shutdown()

        run(body())

    def test_topology_document(self):
        mgr = make_manager()
        doc = mgr.topology_document()
        assert doc["shards"] == 2
        assert doc["partitioner"] == "range"
        assert doc["assignment"]["0"] == ["a", "b"]
        assert doc["assignment"]["1"] == ["f"]
        run(mgr.shutdown())

    def test_wire_surface_via_in_process_client(self):
        async def body():
            mgr = make_manager()
            client = in_process_client(mgr)
            ping = await client.ping()
            assert ping["shards"] == 2
            topology = await client.topology()
            assert topology["shards"] == 2
            txn = await client.begin("W")
            assert isinstance(txn.priority, int)
            await txn.write("b", "wire")
            await txn.write("f", "wire")
            summary = await txn.commit()
            assert summary["shards"] == [0, 1]
            events = await client.history()
            check_serializable(history_from_events(events))
            await mgr.shutdown()

        run(body())

    def test_unsharded_topology_fallback(self):
        async def body():
            manager = LockManager(catalog_two_shards(), "pcp-da")
            client = in_process_client(manager)
            assert (await client.ping())["shards"] == 1
            topology = await client.topology()
            assert topology["shards"] == 1
            assert topology["partitioner"] == "none"
            assert topology["assignment"]["0"] == ["a", "b", "f"]
            await manager.shutdown()

        run(body())

    def test_loadgen_reports_shards_and_flags_idle_ones(self):
        async def body():
            # 4 range shards over a 4-item universe whose transactions
            # only ever touch {a, b}: shards 2 and 3 must grant nothing,
            # and the report must say so out loud.
            r = TransactionSpec("R", (read("a", 1.0),))
            w = TransactionSpec("W", (write("b", 1.0),))
            ghost = TransactionSpec("G", (read("y", 1.0), read("z", 1.0)))
            catalog = assign_by_order([r, w, ghost])
            mgr = ShardedLockManager(
                catalog, "pcp-da", shards=4, partitioner="range",
            )

            async def connect():
                return in_process_client(mgr)

            report = await run_loadgen(
                LoadgenConfig(
                    clients=2, transactions_per_client=3, seed=1,
                    mix={"R": 1.0, "W": 1.0},
                ),
                connect,
            )
            assert report.serializable
            assert report.completed == 6
            text = report.render()
            assert "per-shard breakdown:" in text
            assert "granted zero lock requests" in text
            assert "cross-shard" in text  # coordinator counters rendered
            await mgr.shutdown()

        run(body())


class TestManagerSupport:
    """The coordinator-facing extensions: pins on the unsharded manager,
    and the forced abort both cores share."""

    def test_begin_with_pinned_instance(self):
        async def body():
            manager = LockManager(catalog_two_shards(), "pcp-da")
            pinned = await manager.begin("R", instance=5)
            assert pinned.name == "R#5"
            follow = await manager.begin("R")
            assert follow.name == "R#6"  # counter advanced past the pin
            await manager.shutdown()

        run(body())

    def test_force_abort_is_idempotent(self):
        # On the unsharded manager (1 shard) and a 2-shard coordinator.
        async def body(shards):
            manager = manager_for(shards)
            session = await manager.begin("W")
            await manager.write(session, "b", 1)
            await manager.write(session, "f", 2)
            manager.force_abort(session, "test")
            assert session.state is SessionState.ABORTED
            forced = manager.stats.forced_aborts
            manager.force_abort(session, "test-again")
            assert manager.stats.forced_aborts == forced
            await manager.shutdown()

        for shards in (1, 2):
            run(body(shards))
