"""Real-subprocess deployment soaks (``procs_soak``, excluded from tier-1).

Everything here spawns genuine ``repro shard-host`` children over real
TCP: the five-way decision parity battery with the 4-process coordinator
as its fifth execution, and a concurrent stress run through a 4-process
deployment with full serializability and conservation audits.  The
socket-free equivalents of every mechanism live in the tier-1
``test_procs_*`` files; this tier proves the mechanisms survive actual
process and socket boundaries (``make verify-procs SOAK=1``).
"""

import asyncio

import pytest

from repro.verify.parity import check_decision_parity, parity_battery
from repro.verify.stress import StressSpec, run_stress

pytestmark = pytest.mark.procs_soak


class TestProcsParity:
    def test_five_way_parity_includes_the_4proc_coordinator(self):
        spec = StressSpec(seed=1, transactions=12)
        report = check_decision_parity(
            spec, "pcp-da", coordinator_shards=2, coordinator_procs=4,
        )
        assert "coordinator[4proc]" in report.executions
        assert report.decisions > 0

    def test_parity_battery_grid_with_procs(self):
        reports = parity_battery(
            seeds=(0, 1), protocols=("pcp-da", "pcp"),
            transactions=10, coordinator_procs=2,
        )
        assert len(reports) == 4
        assert all("coordinator[2proc]" in r.executions for r in reports)


class TestProcsStress:
    def test_concurrent_stress_through_4_processes(self):
        spec = StressSpec(
            seed=3, transactions=400, overload=1.5,
            abort_probability=0.02,
        )
        report = asyncio.run(run_stress(
            spec, "pcp-da", shard_procs=4, max_sessions=64,
        ))
        assert report.ok, report.render()
        assert report.procs == 4
        assert report.completed > 0
