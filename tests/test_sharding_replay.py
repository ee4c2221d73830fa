"""4-shard serializability replay acceptance (in-process, tier-1-safe).

The sharded deployment's core promise, checked the only way that counts:
run the stock load generator against a 4-shard :class:`ShardedLockManager`
and let the *client-side* oracle replay the merged history — the same
``check_serializable`` verdict the unsharded service answers to, computed
from shipped wire rows (``history_from_events``), not server say-so.
The socket is skipped (``in_process_client``) so the test stays in the
``make verify-sharding`` tier; the TCP twin lives in
``tests/test_sharding_soak.py`` under the ``sharding_soak`` marker.
"""

import asyncio

from repro.service import (
    LoadgenConfig,
    ServiceConfig,
    ShardedLockManager,
    in_process_client,
    run_loadgen,
)
from repro.workloads.generator import WorkloadConfig, generate_taskset

def load_sharded(workload, loadcfg, *, shards=4, partitioner="hash"):
    """Run the loadgen against a fresh in-process sharded deployment."""

    async def body():
        catalog = generate_taskset(workload)
        manager = ShardedLockManager(
            catalog, "pcp-da", ServiceConfig(),
            shards=shards, partitioner=partitioner,
        )
        try:
            async def connect():
                return in_process_client(manager)

            return await run_loadgen(loadcfg, connect)
        finally:
            await manager.shutdown()

    return asyncio.run(body())


class TestFourShardReplay:
    def test_replay_is_serializable_and_complete(self):
        report = load_sharded(
            WorkloadConfig(
                n_transactions=8, n_items=10, write_probability=0.5, seed=11,
            ),
            LoadgenConfig(clients=12, transactions_per_client=8, seed=5),
        )
        assert report.serializable, report.violation
        assert report.completed == 12 * 8
        assert report.forced_aborts == 0
        assert report.deadline_misses == 0
        assert report.transport_errors == 0
        doc = report.stats_doc
        assert doc["shard_count"] == 4
        assert len(doc["shards"]) == 4
        # The workload genuinely exercised the cross-shard machinery.
        assert doc["coordinator"]["cross_shard_commits"] > 0
        assert doc["coordinator"]["constraint_merges"] > 0

    def test_range_partitioner_replay(self):
        report = load_sharded(
            WorkloadConfig(
                n_transactions=6, n_items=8, write_probability=0.5, seed=3,
            ),
            LoadgenConfig(clients=8, transactions_per_client=6, seed=2),
            partitioner="range",
        )
        assert report.serializable, report.violation
        assert report.completed == 8 * 6
        assert report.forced_aborts == 0

    def test_contended_run_exercises_the_gate(self):
        # Few items, many clients: passes and gate parks are forced.
        # Cross-shard deadlock victims are allowed here — per-shard
        # ceilings void the paper's deadlock-freedom theorem (see
        # docs/SHARDING.md), so the invariant is *accounted resolution*
        # plus a serializable replay, not zero aborts.
        report = load_sharded(
            WorkloadConfig(
                n_transactions=6, n_items=6, write_probability=0.6, seed=29,
            ),
            LoadgenConfig(clients=16, transactions_per_client=6, seed=13),
        )
        assert report.serializable, report.violation
        accounted = (report.completed + report.forced_aborts
                     + report.transport_errors)
        assert accounted == 16 * 6
        assert report.completed > 0
        coordinator = report.stats_doc["coordinator"]
        assert coordinator["gate_waits"] > 0
