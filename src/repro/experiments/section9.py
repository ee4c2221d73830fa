"""Executable reproduction of the Section 9 schedulability analysis."""

from __future__ import annotations

from repro.analysis.blocking import blocking_terms, bts_pcp_da, bts_rw_pcp
from repro.analysis.breakdown import breakdown_utilization
from repro.analysis.rm_bound import rm_schedulable
from repro.experiments.spec import ExperimentReport
from repro.model.spec import TaskSet, TransactionSpec
from repro.workloads.examples import example3_taskset
from repro.workloads.generator import WorkloadConfig, generate_taskset


def _periodic_example3() -> TaskSet:
    """Example 3 with T2 given a period so the RM analysis applies."""
    base = example3_taskset()
    return TaskSet([
        base["T1"],
        TransactionSpec(
            name="T2", operations=base["T2"].operations,
            priority=base["T2"].priority, period=20.0,
        ),
    ])


def run_section9_analysis() -> ExperimentReport:
    """The analytical claims: BTS subset, smaller B_i."""
    report = ExperimentReport("Section 9 (worst-case analysis)", "Section 9")
    taskset = _periodic_example3()
    report.check(
        "BTS_1 under RW-PCP contains the write-only T2",
        frozenset({"T2"}), bts_rw_pcp(taskset, "T1"),
    )
    report.check(
        "BTS_1 under PCP-DA is empty (writes are preemptable)",
        frozenset(), bts_pcp_da(taskset, "T1"),
    )
    report.check(
        "B_1 shrinks from C_2=5 to 0",
        (5.0, 0.0),
        (
            blocking_terms(taskset, "rw-pcp")["T1"],
            blocking_terms(taskset, "pcp-da")["T1"],
        ),
    )
    da_breakdown = breakdown_utilization(taskset, "pcp-da")
    rw_breakdown = breakdown_utilization(taskset, "rw-pcp")
    report.check_true(
        "PCP-DA's breakdown utilisation strictly exceeds RW-PCP's here",
        da_breakdown > rw_breakdown,
        measured=f"{da_breakdown:.4f} vs {rw_breakdown:.4f}",
    )
    # Subset property across a random corpus.
    subset_holds = True
    for seed in range(20):
        ts = generate_taskset(WorkloadConfig(seed=seed, write_probability=0.4))
        for name in ts.names:
            if not bts_pcp_da(ts, name) <= bts_rw_pcp(ts, name):
                subset_holds = False
    report.check_true(
        "BTS_i(PCP-DA) ⊆ BTS_i(RW-PCP) on 20 random task sets",
        subset_holds,
    )
    return report


def _sweep_point(utilization: float, sets_per_point: int) -> dict:
    """One sweep point: RM-accepted set counts per protocol."""
    accepted = {"pcp-da": 0, "rw-pcp": 0}
    for seed in range(sets_per_point):
        ts = generate_taskset(
            WorkloadConfig(
                n_transactions=6, n_items=8, write_probability=0.5,
                hot_access_probability=0.8,
                target_utilization=utilization, seed=seed,
            )
        )
        for protocol in accepted:
            accepted[protocol] += rm_schedulable(ts, protocol)
    return accepted


def run_section9_sweep(
    *, utilizations=(0.3, 0.5, 0.7), sets_per_point: int = 25,
) -> ExperimentReport:
    """The schedulable-fraction comparison over random workloads."""
    report = ExperimentReport(
        "Section 9 (schedulable-fraction sweep)", "Section 9"
    )
    rows = [(u, _sweep_point(u, sets_per_point)) for u in utilizations]
    for utilization, accepted in rows:
        report.check_true(
            f"at utilisation {utilization}: PCP-DA accepts at least as many "
            "sets as RW-PCP",
            accepted["pcp-da"] >= accepted["rw-pcp"],
            measured=f"{accepted['pcp-da']} vs {accepted['rw-pcp']} of {sets_per_point}",
        )
    strictly = any(a["pcp-da"] > a["rw-pcp"] for _, a in rows)
    report.check_true(
        "PCP-DA strictly wins at some load point", strictly
    )
    lines = [f"{'util':<6}{'pcp-da':>8}{'rw-pcp':>8}"]
    for utilization, accepted in rows:
        lines.append(
            f"{utilization:<6}{accepted['pcp-da']:>8}{accepted['rw-pcp']:>8}"
        )
    report.artifact = "\n".join(lines)
    return report
