"""Load-generator tests, run entirely in-process (no sockets).

The generator is exercised against an in-process client factory, so
these tests cover worker scheduling, the mix draw, the abort/deadline
chaos paths, the open loop over a stress arrival schedule, and the
client-side serializability verdict — the TCP soak variant lives in
``test_service_soak.py`` behind the ``service_soak`` marker.
"""

import asyncio

import pytest

from repro.db.history import History
from repro.exceptions import SpecificationError
from repro.service import LockManager, ServiceConfig
from repro.service.client import in_process_client
from repro.service.loadgen import (
    LoadgenConfig,
    LoadReport,
    history_from_events,
    run_loadgen,
)
from repro.service.stats import LatencyHistogram
from repro.verify.stress import StressSpec, iter_arrivals, make_catalog
from repro.workloads.generator import WorkloadConfig, generate_taskset


def make_manager(protocol="pcp-da", *, seed=11, max_sessions=64):
    catalog = generate_taskset(WorkloadConfig(
        n_transactions=5, n_items=6, write_probability=0.5,
        rmw_probability=0.25, seed=seed,
    ))
    return LockManager(
        catalog, protocol, ServiceConfig(max_sessions=max_sessions)
    )


def run_against(manager, config, arrivals=None):
    async def body():
        async def connect():
            return in_process_client(manager)

        try:
            return await run_loadgen(config, connect, arrivals)
        finally:
            await manager.shutdown()

    return asyncio.run(body())


def run_schedule(spec, config):
    """The open loop: ``spec``'s arrival schedule against its catalog."""
    manager = LockManager(
        make_catalog(spec), "pcp-da", ServiceConfig(max_sessions=64)
    )
    return run_against(manager, config, iter_arrivals(spec))


class TestConfigValidation:
    def test_rejects_zero_clients(self):
        with pytest.raises(SpecificationError):
            LoadgenConfig(clients=0)

    def test_rejects_zero_budget(self):
        with pytest.raises(SpecificationError):
            LoadgenConfig(transactions_per_client=0)

    def test_rejects_bad_abort_probability(self):
        with pytest.raises(SpecificationError):
            LoadgenConfig(abort_probability=1.5)

    @pytest.mark.parametrize("field, value", [
        ("deadline_s", 0), ("deadline_s", -3), ("deadline_s", True),
        ("duration_s", 0), ("duration_s", -1), ("think_time_s", -0.5),
    ])
    def test_rejects_what_the_service_rejects(self, field, value):
        with pytest.raises(SpecificationError, match=field):
            LoadgenConfig(**{field: value})


class TestClosedLoop:
    def test_serializable_run_with_counters(self):
        manager = make_manager()
        config = LoadgenConfig(
            clients=6, transactions_per_client=4, seed=3
        )
        report = run_against(manager, config)
        assert report.serializable, report.violation
        assert report.completed == 24
        assert report.latency.total == report.completed
        assert len(manager.history.committed_jobs) == report.completed
        assert report.begun == report.completed
        assert report.installs == report.written_items > 0
        assert report.stats is not None
        assert report.stats.commits == report.completed
        assert report.throughput_tps > 0

    def test_chaos_aborts_counted_and_still_serializable(self):
        manager = make_manager(seed=29)
        config = LoadgenConfig(
            clients=4, transactions_per_client=6, seed=5,
            abort_probability=0.4,
        )
        report = run_against(manager, config)
        assert report.serializable, report.violation
        assert report.client_aborts > 0
        assert report.completed + report.client_aborts <= 24

    def test_mix_restricts_names(self):
        manager = make_manager()
        only = next(iter(manager.catalog)).name
        config = LoadgenConfig(
            clients=2, transactions_per_client=3, seed=1,
            mix={only: 1.0},
        )
        report = run_against(manager, config)
        assert report.serializable
        assert set(manager.history.committed_jobs) <= {
            f"{only}#{i}" for i in range(6)
        }

    def test_mix_with_unknown_name_fails(self):
        manager = make_manager()
        config = LoadgenConfig(
            clients=1, transactions_per_client=1, mix={"T999": 1.0}
        )
        with pytest.raises(SpecificationError, match="T999"):
            run_against(manager, config)


class TestOpenLoop:
    def test_open_loop_serializable(self):
        spec = StressSpec(seed=9, transactions=12, arrival_rate_hz=500.0)
        report = run_schedule(spec, LoadgenConfig(clients=3, seed=9))
        assert report.serializable, report.violation
        assert report.completed == 12

    def test_duration_stops_dispatch(self):
        # a 2 s schedule cut at 0.2 s: most arrivals never start
        spec = StressSpec(
            seed=2, transactions=100, arrival_rate_hz=50.0, burst_factor=1.0,
        )
        report = run_schedule(
            spec, LoadgenConfig(clients=2, duration_s=0.2)
        )
        assert report.serializable, report.violation
        assert 0 < report.begun < 50
        assert report.wall_s < 1.0


class TestHistoryRoundTrip:
    def test_history_from_events_matches_manager_history(self):
        manager = make_manager()
        config = LoadgenConfig(clients=3, transactions_per_client=3, seed=7)

        async def body():
            async def connect():
                return in_process_client(manager)

            report = await run_loadgen(config, connect)
            rebuilt = history_from_events(manager.history_events())
            return report, rebuilt, manager.history

        report, rebuilt, original = asyncio.run(body())
        assert report.serializable
        assert [
            (e.kind, e.job, e.item, e.version_seq, e.time)
            for e in rebuilt.events
        ] == [
            (e.kind, e.job, e.item, e.version_seq, e.time)
            for e in original.events
        ]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown history event"):
            history_from_events([{"kind": "mystery", "job": "T1#0"}])

    def test_empty_events_give_empty_history(self):
        history = history_from_events([])
        assert isinstance(history, History)
        assert list(history.events) == []


class TestReportRender:
    def test_render_contains_verdict_and_histogram(self):
        manager = make_manager()
        config = LoadgenConfig(clients=4, transactions_per_client=3, seed=2)
        report = run_against(manager, config)
        text = report.render()
        assert "serializability: OK" in text
        assert "end-to-end commit latency" in text
        assert "blocking by priority band" in text
        assert f"committed={report.completed}" in text

    def test_render_reports_violation(self):
        report = LoadReport(
            config=LoadgenConfig(clients=1, transactions_per_client=1),
            protocol="pcp-da",
            wall_s=1.0,
            serializable=False,
            violation="cycle T1#0 -> T2#0 -> T1#0",
        )
        text = report.render()
        assert "serializability: VIOLATION" in text
        assert "cycle" in text

    def test_latency_histogram_percentiles(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.004, 0.100):
            hist.record(value)
        assert hist.total == 4
        assert hist.percentile(50) >= 0.001
        # Percentiles answer with the bucket's upper bound, so they can
        # only over-report relative to the exact sample.
        assert hist.percentile(100) >= hist.max
        round_tripped = LatencyHistogram.from_dict(hist.to_dict())
        assert round_tripped.counts == hist.counts
        assert round_tripped.total == hist.total


class TestChaosDeterministic:
    """The loadgen-chaos abort branch at probability 1.0: every
    transaction takes it, making the counters exact rather than
    statistical."""

    def test_full_chaos_aborts_everything(self):
        manager = make_manager(seed=31)
        config = LoadgenConfig(
            clients=3, transactions_per_client=5, seed=2,
            abort_probability=1.0,
        )
        report = run_against(manager, config)
        assert report.completed == 0
        assert report.client_aborts == 15
        assert report.serializable  # nothing committed, trivially so
        assert manager.history.committed_jobs == ()
        assert report.stats is not None
        assert report.stats.client_aborts == 15
        assert report.stats.commits == 0


class TestBurstKnobs:
    def test_bursty_open_loop_run_stays_serializable(self):
        spec = StressSpec(
            seed=4, transactions=15, arrival_rate_hz=800.0,
            burst_factor=6.0, burst_period_s=0.05, burst_duty=0.3,
        )
        report = run_schedule(spec, LoadgenConfig(clients=3, seed=4))
        assert report.serializable, report.violation
        assert report.completed == 15


class TestZeroGrantShardWarning:
    """_render_shards' silent-misrouting detector, pinned on synthetic
    stats documents."""

    def _shard_entry(self, shard, grants, commits):
        return {
            "shard": shard, "items": 3, "sessions": commits,
            "grants": grants, "denials": 0, "commits": commits,
            "commit_latency": LatencyHistogram().to_dict(),
            "lock_wait": LatencyHistogram().to_dict(),
        }

    def _report(self, completed, shards):
        report = LoadReport(
            config=LoadgenConfig(clients=1, transactions_per_client=1),
            protocol="pcp-da", wall_s=1.0, completed=completed,
        )
        report.stats_doc = {"shards": shards}
        return report

    def test_idle_shard_warned_by_number(self):
        report = self._report(5, [
            self._shard_entry(0, grants=10, commits=5),
            self._shard_entry(1, grants=0, commits=0),
        ])
        text = report.render()
        assert "WARNING: shard(s) 1 granted zero lock" in text
        assert "possible silent misrouting" in text

    def test_no_warning_when_every_shard_granted(self):
        report = self._report(5, [
            self._shard_entry(0, grants=10, commits=3),
            self._shard_entry(1, grants=4, commits=2),
        ])
        assert "WARNING" not in report.render()

    def test_no_warning_on_an_empty_run(self):
        # nothing committed anywhere: idle shards are expected, not
        # suspicious
        report = self._report(0, [
            self._shard_entry(0, grants=0, commits=0),
            self._shard_entry(1, grants=0, commits=0),
        ])
        assert "WARNING" not in report.render()
