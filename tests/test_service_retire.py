"""What a finished transaction leaves behind in the lock core.

Under the update-in-workspace model nothing live can reach a finished
transaction's session, job, workspace or superseded versions, so the
core keeps none of them: a finished session leaves ``LockCore``'s
registries (and ``ShardedCore``'s) at its terminal, and what is left is
its history rows and its instance number (docs/SERVICE.md, "What a
finished transaction leaves behind").  The tier-1 cases pin the bytes
retained per commit and the registries' contents; the ``service_soak``
case (``SOAK=1 make verify-service``) pins the growth over 100k commits.
"""

import asyncio
import gc
import tracemalloc

import pytest

from repro.exceptions import TransactionAborted
from repro.service import LockManager
from repro.service.client import in_process_client
from repro.service.core import LockCore
from repro.service.loadgen import LoadgenConfig, run_loadgen
from repro.service.park import Park
from repro.service.sharding.coordinator import ShardedLockManager
from repro.service.sharding.core import ShardedCore
from repro.verify.stress import StressSpec, make_catalog

#: Bytes a commit may leave behind: its history rows (about 4.5 per
#: transaction on this catalog) and its instance number.  A core that
#: kept its finished sessions, trace and versions retained 3,396 B.
RETAINED_BYTES_PER_COMMIT = 1200


def drive(core, catalog, start, stop):
    """Run transactions ``start`` … ``stop - 1`` one after another, each
    to its commit; transaction ``i`` is catalog type ``i`` mod the
    catalog size.  With one session at a time nothing ever parks."""
    names = list(catalog.names)
    for index in range(start, stop):
        spec = catalog[names[index % len(names)]]
        session = core.begin(spec.name)
        for op in spec.operations:
            if op.kind.value == "read":
                core.read(session, op.item)
            else:
                core.write(session, op.item, index)
        core.commit(session)


def retained_per_commit(core, catalog, warm, total):
    """Bytes still allocated per commit after commits ``warm`` … ``total``,
    traced from commit ``warm`` on (an upper bound: objects allocated
    before tracing started are not credited when they are freed)."""
    drive(core, catalog, 0, warm)
    gc.collect()
    tracemalloc.start()
    try:
        drive(core, catalog, warm, total)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained / (total - warm)


def stress_catalog():
    return make_catalog(StressSpec(seed=1))


class TestRetainedBytes:
    def test_a_commit_leaves_only_its_history_rows(self):
        catalog = stress_catalog()
        core = LockCore(catalog, "pcp-da")
        per_commit = retained_per_commit(core, catalog, 2000, 6000)
        assert per_commit <= RETAINED_BYTES_PER_COMMIT, per_commit
        assert not core._sessions and not core._by_job
        assert len(core.history_events()) > 6000


class TestRegistriesHoldLiveSessionsOnly:
    """After a contended run with aborts, parks and sessions left open,
    every registry names exactly the live sessions."""

    @staticmethod
    def _hot_catalog():
        return make_catalog(StressSpec(
            seed=1, txn_types=8, items=24, min_ops=2, max_ops=5,
            write_probability=0.3, zipf_s=1.1,
        ))

    @staticmethod
    async def _load_then_open(manager, catalog):
        async def connect():
            return in_process_client(manager)

        report = await run_loadgen(
            LoadgenConfig(clients=8, transactions_per_client=25, seed=1,
                          abort_probability=0.2),
            connect,
        )
        assert report.serializable, report.violation
        names = list(catalog.names)
        return [await manager.begin(name) for name in names[:3]]

    def test_lock_core(self):
        async def body():
            catalog = self._hot_catalog()
            manager = LockManager(catalog, "pcp-da")
            opened = await self._load_then_open(manager, catalog)
            assert manager.stats.client_aborts > 0
            live = set(manager.live_sessions())
            assert live == set(opened)
            assert set(manager._sessions.values()) == live
            assert set(manager._by_job.values()) == live
            assert set(manager._by_job) == {s.job for s in live}
            await manager.shutdown()
            assert not manager._sessions and not manager._by_job

        asyncio.run(body())

    def test_sharded_core_and_its_shards(self):
        async def body():
            catalog = self._hot_catalog()
            manager = ShardedLockManager(catalog, "pcp-da", shards=4)
            opened = await self._load_then_open(manager, catalog)
            live = set(manager.live_sessions())
            assert live == set(opened)
            assert set(manager._sessions.values()) == live
            legs = {leg for s in live for leg in s.legs.values()}
            for shard in manager.shards:
                assert set(shard._sessions.values()) <= legs
                assert set(shard._by_job.values()) <= legs
            await manager.shutdown()
            assert not manager._sessions
            for shard in manager.shards:
                assert not shard._sessions and not shard._by_job

        asyncio.run(body())

    @staticmethod
    def _parked(core):
        """A session holding a read lock, and one whose write of the
        same item parked behind it (LC1)."""
        spec = next(s for s in core.catalog if s.write_set)
        item = sorted(spec.write_set)[0]
        holder = core.begin(spec.name)
        core.read(holder, item)
        waiter = core.begin(spec.name)
        park = core.write(waiter, item, 2)
        assert isinstance(park, Park) and not park.ended
        return holder, waiter, park

    def test_a_job_churned_then_finished_before_the_drain_is_skipped(self):
        """Churn queued for a job that finishes before the next drain
        names a job the core no longer holds: the drain skips it."""
        core = LockCore(self._hot_catalog(), "pcp-da")
        holder, waiter, park = self._parked(core)
        other = core.begin(next(iter(core.catalog.names)))
        core._churn_priorities.add(other.job)
        core._churn_waiters.add(other.job)
        core.abort(other)
        assert not park.ended
        assert set(core._by_job.values()) == {holder, waiter}

    def test_an_aborted_parked_session_leaves_too(self):
        core = LockCore(self._hot_catalog(), "pcp-da")
        holder, waiter, park = self._parked(core)
        core.force_abort(waiter, "victim")
        assert park.ended and isinstance(park.outcome, TransactionAborted)
        assert set(core._sessions.values()) == {holder}
        assert set(core._by_job.values()) == {holder}
        core.commit(holder)
        assert not core._sessions and not core._by_job


@pytest.mark.service_soak
class TestRetainedBytesSoak:
    """100k sequential commits; growth from commit 20k on (``SOAK=1
    make verify-service``)."""

    def test_lock_core(self):
        catalog = stress_catalog()
        per_commit = retained_per_commit(
            LockCore(catalog, "pcp-da"), catalog, 20_000, 100_000
        )
        assert per_commit <= RETAINED_BYTES_PER_COMMIT, per_commit

    def test_sharded_core_four_shards(self):
        """Each leg keeps its own history rows and instance number and
        the coordinator keeps one outcome row, so the sharded figure is
        higher (measured 1,285 B at 2k→6k; 6,257 B when finished
        sessions stayed)."""
        catalog = stress_catalog()
        per_commit = retained_per_commit(
            ShardedCore(catalog, "pcp-da", shards=4), catalog,
            20_000, 100_000,
        )
        assert per_commit <= 1600, per_commit
