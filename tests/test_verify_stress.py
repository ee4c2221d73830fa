"""Stress-harness tests (repro.verify.stress).

Workload generation is pinned deterministically (catalog shape, arrival
schedule, burst density, chaos flags); the concurrent runner is
exercised at small scale against 1-shard and 2-shard deployments with
every verdict checked.  Acceptance-scale overload runs (100k arrivals,
the ``make stress`` battery) live behind the ``stress_soak`` marker.
"""

import asyncio

import pytest

from repro.exceptions import SpecificationError
from repro.service.loadgen import LoadgenConfig, LoadReport
from repro.service.manager import SERVED_PROTOCOLS
from repro.verify.stress import (
    CEILING_FAMILY,
    DEADLOCK_FREE_CEILING,
    StressReport,
    StressSpec,
    _audit_conservation,
    build_taskset,
    iter_arrivals,
    make_catalog,
    run_stress,
    simulator_stress_check,
    zipf_weights,
)


class TestSpecValidation:
    def test_rejects_zero_transactions(self):
        with pytest.raises(SpecificationError):
            StressSpec(transactions=0)

    def test_rejects_bad_ops_range(self):
        with pytest.raises(SpecificationError):
            StressSpec(min_ops=4, max_ops=2)

    def test_rejects_ops_beyond_items(self):
        with pytest.raises(SpecificationError):
            StressSpec(items=3, max_ops=4)

    def test_rejects_sub_unit_burst_factor(self):
        with pytest.raises(SpecificationError):
            StressSpec(burst_factor=0.5)

    def test_rejects_bad_abort_probability(self):
        with pytest.raises(SpecificationError):
            StressSpec(abort_probability=-0.1)


class TestWorkloadGeneration:
    def test_zipf_weights_decrease(self):
        weights = zipf_weights(10, 1.1)
        assert weights == sorted(weights, reverse=True)

    def test_catalog_is_deterministic(self):
        spec = StressSpec(seed=5)
        a, b = make_catalog(spec), make_catalog(spec)
        assert [(s.name, s.operations) for s in a.specs] == \
            [(s.name, s.operations) for s in b.specs]

    def test_catalog_priorities_distinct_and_programs_install(self):
        catalog = make_catalog(StressSpec(seed=4))
        priorities = [catalog[n].priority for n in catalog.names]
        assert len(set(priorities)) == len(priorities)
        for name in catalog.names:
            ops = catalog[name].operations
            assert any(op.kind.value == "write" for op in ops)
            items = [op.item for op in ops]
            assert len(set(items)) == len(items)

    def test_arrivals_deterministic_and_ordered(self):
        spec = StressSpec(seed=7, transactions=200)
        a, b = list(iter_arrivals(spec)), list(iter_arrivals(spec))
        assert a == b
        times = [arr.at_s for arr in a]
        assert times == sorted(times)
        assert [arr.seq for arr in a] == list(range(200))

    def test_chaos_flags_follow_probability_extremes(self):
        none = StressSpec(seed=7, transactions=50, abort_probability=0.0)
        assert not any(a.chaos_abort for a in iter_arrivals(none))
        always = StressSpec(seed=7, transactions=50, abort_probability=1.0)
        assert all(a.chaos_abort for a in iter_arrivals(always))

    def test_burst_phase_is_denser(self):
        spec = StressSpec(
            seed=9, transactions=4000, burst_factor=8.0,
            burst_period_s=0.5, burst_duty=0.25,
        )
        in_burst = sum(
            1 for a in iter_arrivals(spec)
            if a.at_s % spec.burst_period_s
            < spec.burst_period_s * spec.burst_duty
        )
        # burst windows cover 25% of the time; at 8x the rate they should
        # hold well over half of all arrivals (expected ~73%)
        assert in_burst / spec.transactions > 0.5

    def test_overload_scales_offered_rate(self):
        base = StressSpec(seed=3, transactions=500, overload=1.0)
        doubled = StressSpec(seed=3, transactions=500, overload=2.0)
        last = lambda s: list(iter_arrivals(s))[-1].at_s  # noqa: E731
        assert last(doubled) < last(base)


class TestBuildTaskset:
    def test_priorities_unique_and_type_ordered(self):
        spec = StressSpec(seed=6, transactions=40)
        taskset = build_taskset(spec)
        priorities = [s.priority for s in taskset.specs]
        assert len(set(priorities)) == len(priorities)
        catalog = make_catalog(spec)
        by_type = {}
        for s in taskset.specs:
            by_type.setdefault(s.name.split("@")[0], []).append(s.priority)
        # every instance of a higher-priority type outranks every
        # instance of a lower one
        ranked_types = sorted(
            by_type, key=lambda t: -catalog[t].priority
        )
        for higher, lower in zip(ranked_types, ranked_types[1:]):
            assert min(by_type[higher]) > max(by_type[lower])

    def test_limit_bounds_the_instancing(self):
        spec = StressSpec(seed=6, transactions=400)
        assert len(build_taskset(spec, limit=25).specs) == 25


@pytest.mark.stress
class TestConcurrentStress:
    def _spec(self, **overrides):
        params = dict(
            seed=1, transactions=300, overload=1.5,
            arrival_rate_hz=3000.0, abort_probability=0.05,
        )
        params.update(overrides)
        return StressSpec(**params)

    def test_single_shard_run_passes_all_checks(self):
        report = asyncio.run(run_stress(self._spec(), "pcp-da"))
        assert report.ok, report.render()
        assert report.begun == (
            report.completed + report.client_aborts
            + report.forced_aborts + report.deadline_misses
        )
        assert report.history_events > 0

    def test_two_shard_run_passes_all_checks(self):
        report = asyncio.run(run_stress(
            self._spec(), "pcp-da", shards=2, max_sessions=64,
        ))
        assert report.ok, report.render()
        assert report.shards == 2
        assert "shards" in report.stats_doc

    def test_full_chaos_is_deterministic(self):
        report = asyncio.run(run_stress(
            self._spec(abort_probability=1.0), "pcp-da",
        ))
        assert report.ok, report.render()
        assert report.completed == 0
        assert report.client_aborts == report.begun

    def test_sessions_overlap_and_wait(self):
        # The driver's every request crosses the event loop, so arrivals
        # overlap and lock requests are denied; a harness that ran each
        # transaction from begin to commit in one step would read 0.
        for shards, cap in ((1, 512), (2, 64)):
            report = asyncio.run(run_stress(
                self._spec(), "pcp-da", shards=shards, max_sessions=cap,
            ))
            assert report.ok, report.render()
            assert report.stats_doc["denials"] > 0, report.render()

    def test_rw_pcp_also_holds(self):
        report = asyncio.run(run_stress(self._spec(), "rw-pcp"))
        assert report.ok, report.render()
        # the conservation audit counted installs against real writes
        assert report.written_items > 0


class TestConservationAudit:
    """_audit_conservation on synthetic reports: each failure names
    itself."""

    def _report(self, **counters):
        params = dict(
            config=LoadgenConfig(clients=1), protocol="pcp-da", wall_s=1.0,
            begun=3, completed=2, client_aborts=1, written_items=4,
            installs=4,
            stats_doc={"sessions_started": 3, "commits": 2,
                       "client_aborts": 1, "forced_aborts": 0},
        )
        params.update(counters)
        return StressReport(spec=StressSpec(), load=LoadReport(**params))

    def test_balanced_run_passes(self):
        report = self._report()
        _audit_conservation(report, live=0)
        assert report.conservation_ok, report.conservation_detail

    def test_transport_error_fails_with_its_own_message(self):
        # the begun session resolved as a transport error, not an abort
        report = self._report(client_aborts=0, transport_errors=1)
        _audit_conservation(report, live=0)
        assert not report.conservation_ok
        assert report.conservation_detail.startswith(
            "transport_errors=1 in an in-process run"
        )
        # the driver's resolved sum counts the error: no begun mismatch
        assert "driver: begun" not in report.conservation_detail

    def test_missing_install_and_live_session_fail(self):
        report = self._report(installs=3)
        _audit_conservation(report, live=2)
        assert not report.conservation_ok
        assert "history installs=3" in report.conservation_detail
        assert "2 session(s) still live" in report.conservation_detail


@pytest.mark.stress
class TestSimulatorOracle:
    def test_pcp_da_prefix_passes_theorem_oracles(self):
        result = simulator_stress_check(
            StressSpec(seed=2, transactions=300), "pcp-da", limit=120,
        )
        assert len(result.jobs) == 120

    def test_kernel_fallback_protocol_passes_too(self):
        # rw-pcp-abort opts out of the kernel; the byte-identity half of
        # the check then pins the fallback path on the stress schedule
        simulator_stress_check(
            StressSpec(seed=2, transactions=300), "rw-pcp-abort", limit=80,
        )


class TestFamilies:
    def test_deadlock_free_family_is_a_subset(self):
        assert set(SERVED_PROTOCOLS) < set(DEADLOCK_FREE_CEILING)
        assert set(DEADLOCK_FREE_CEILING) < set(CEILING_FAMILY)
        assert "weak-pcp-da" not in DEADLOCK_FREE_CEILING


@pytest.mark.stress_soak
class TestAcceptanceSoak:
    """The ``make stress`` acceptance criterion at pytest's disposal."""

    def test_100k_overload_trace_single_and_sharded(self):
        spec = StressSpec(
            seed=0, transactions=100_000, overload=2.0,
            abort_probability=0.02,
        )
        for shards, cap in ((1, 512), (4, 64)):
            report = asyncio.run(run_stress(
                spec, "pcp-da", shards=shards, max_sessions=cap,
            ))
            assert report.ok, report.render()
