"""Decision-level parity battery (repro.verify.parity).

One seeded workload, four executions — simulator (kernel and object
paths), in-process service, sharded coordinator — must agree
decision-for-decision under sequential replay.  The acceptance battery
(20 seeds × the served protocols on all four paths, plus the rest of the
ceiling family on the two simulator paths) runs here in tier-1; the
harness's plumbing (normalisation, sequential task sets, divergence
reporting) is pinned by the smaller cases.
"""

import pytest

from repro.trace.recorder import LockEvent, LockOutcome
from repro.verify.parity import (
    ParityError,
    _normalise,
    check_decision_parity,
    coordinator_decisions,
    parity_battery,
    sequential_taskset,
    service_decisions,
    simulator_decisions,
)
from repro.service.manager import SERVED_PROTOCOLS
from repro.verify.stress import CEILING_FAMILY, StressSpec, iter_arrivals


def _event(job, item="x1", mode="write", outcome=LockOutcome.GRANTED,
           rule="LC1"):
    from repro.model.spec import LockMode

    return LockEvent(
        time=0.0, job=job, item=item,
        mode=LockMode.WRITE if mode == "write" else LockMode.READ,
        outcome=outcome, rule=rule, blockers=(),
    )


class TestNormalise:
    def test_simulator_naming(self):
        # simulator jobs: "<type>@<instance>#<release>"
        assert _normalise(_event("S3@7#0"))[:2] == ("S3", 7)

    def test_service_naming(self):
        # service jobs: "<type>#<instance>"
        assert _normalise(_event("S3#7"))[:2] == ("S3", 7)

    def test_same_record_across_schemes(self):
        assert _normalise(_event("S12@4#0")) == _normalise(_event("S12#4"))


class TestSequentialTaskset:
    def test_offsets_strictly_spaced(self):
        spec = StressSpec(seed=1, transactions=10)
        taskset = sequential_taskset(spec)
        offsets = sorted(s.offset for s in taskset.specs)
        gaps = [b - a for a, b in zip(offsets, offsets[1:])]
        assert all(g > 1.0 for g in gaps)

    def test_one_spec_per_arrival(self):
        spec = StressSpec(seed=1, transactions=10)
        taskset = sequential_taskset(spec)
        arrivals = list(iter_arrivals(spec))
        assert len(taskset.specs) == len(arrivals)
        # instance numbering is the per-type occurrence index
        names = {s.name for s in taskset.specs}
        per_type = {}
        for arrival in arrivals:
            k = per_type.get(arrival.name, 0)
            per_type[arrival.name] = k + 1
            assert f"{arrival.name}@{k}" in names


class TestDecisionSequences:
    def test_simulator_kernel_object_agree(self):
        spec = StressSpec(seed=2, transactions=12)
        a = simulator_decisions(spec, "pcp-da", kernel=True)
        b = simulator_decisions(spec, "pcp-da", kernel=False)
        assert a and a == b

    def test_service_matches_simulator(self):
        spec = StressSpec(seed=2, transactions=12)
        assert (
            service_decisions(spec, "pcp-da")
            == simulator_decisions(spec, "pcp-da", kernel=True)
        )

    def test_coordinator_shard_counts_agree(self):
        spec = StressSpec(seed=2, transactions=12)
        one = coordinator_decisions(spec, "pcp-da", shards=1)
        three = coordinator_decisions(spec, "pcp-da", shards=3)
        assert one and one == three


class TestCheckDecisionParity:
    def test_reports_executions_and_decisions(self):
        spec = StressSpec(seed=3, transactions=8)
        report = check_decision_parity(spec, "rw-pcp")
        assert len(report.executions) == 4
        assert report.decisions > 0

    def test_divergence_raises_with_location(self):
        spec = StressSpec(seed=3, transactions=8)
        good = simulator_decisions(spec, "pcp-da", kernel=True)
        tampered = list(good)
        tampered[2] = tampered[2][:5] + ("LC-bogus",)
        with pytest.raises(ParityError) as excinfo:
            check_decision_parity(
                spec, "pcp-da",
                extra_executions={"tampered": lambda: tampered},
            )
        message = str(excinfo.value)
        assert "tampered" in message and "decision 2" in message

    def test_length_mismatch_raises(self):
        spec = StressSpec(seed=3, transactions=8)
        good = simulator_decisions(spec, "pcp-da", kernel=True)
        with pytest.raises(ParityError) as excinfo:
            check_decision_parity(
                spec, "pcp-da",
                extra_executions={"short": lambda: good[:-1]},
            )
        assert "lengths differ" in str(excinfo.value)


@pytest.mark.stress
class TestAcceptanceBattery:
    """The ISSUE's parity acceptance criterion, enforced in tier-1."""

    def test_twenty_seeds_ceiling_family(self):
        reports = parity_battery(seeds=range(20), transactions=25)
        assert len(reports) == 20 * len(SERVED_PROTOCOLS)
        assert all(len(r.executions) == 4 for r in reports)
        assert all(r.decisions > 0 for r in reports)

    @pytest.mark.parametrize("protocol", sorted(
        set(CEILING_FAMILY) - set(SERVED_PROTOCOLS)
    ))
    def test_twenty_seeds_simulator_only_members(self, protocol):
        # The service refuses these; their kernel table (or, for the
        # force-opt-out members, the fallback) still has to make the
        # object path's decisions on the same twenty workloads.
        for seed in range(20):
            spec = StressSpec(seed=seed, transactions=25)
            kernel = simulator_decisions(spec, protocol, kernel=True)
            assert kernel
            assert kernel == simulator_decisions(spec, protocol, kernel=False)

    def test_multi_shard_coordinator_in_the_loop(self):
        parity_battery(
            seeds=range(3), protocols=("pcp-da", "rw-pcp"),
            transactions=15, coordinator_shards=3,
        )
