"""Executable reproductions of Table 1 and Figures 1-5 (+ Example 5).

Each function simulates the relevant example and returns an
:class:`~repro.experiments.spec.ExperimentReport` whose checks quote the
paper's narration.  These are the same facts the figure-pinning tests
assert; here they are packaged as data so the CLI can print the ledger.
"""

from __future__ import annotations

from repro.core.compatibility import compatibility_table, render_compatibility_table
from repro.engine.simulator import SimConfig, Simulator
from repro.experiments.spec import ExperimentReport
from repro.model.spec import DUMMY_PRIORITY
from repro.protocols import make_protocol
from repro.trace.gantt import render_gantt
from repro.trace.sysceil import SysceilTrace
from repro.workloads.examples import (
    example1_taskset,
    example3_taskset,
    example4_taskset,
    example5_taskset,
)


def _simulate(taskset, protocol, config=None):
    return Simulator(taskset, make_protocol(protocol), config).run()


def run_table1() -> ExperimentReport:
    """Regenerate Table 1 and check every cell against the paper."""
    report = ExperimentReport("Table 1", "Section 4.1")
    outcomes = {
        (held, req, cond): ok for held, req, cond, ok in compatibility_table()
    }
    report.check("read/read compatible", True, outcomes[("read", "read", "-")])
    report.check(
        "read-held blocks write request (Case 2)",
        False, outcomes[("read", "write", "-")],
    )
    report.check(
        "write/write compatible (Case 3, blind writes)",
        True, outcomes[("write", "write", "-")],
    )
    report.check(
        "write-held admits read when DataRead(T_L) ∩ WriteSet(T_H) = ∅ (Case 1)",
        True,
        outcomes[("write", "read", "DataRead(T_L) ∩ WriteSet(T_H) = ∅")],
    )
    report.check(
        "write-held refuses read when the sets intersect",
        False,
        outcomes[("write", "read", "DataRead(T_L) ∩ WriteSet(T_H) ≠ ∅")],
    )
    report.artifact = render_compatibility_table()
    return report


def run_figure1() -> ExperimentReport:
    """Example 1 under RW-PCP (Figure 1) + the PCP-DA counterpart."""
    report = ExperimentReport("Figure 1 (Example 1, RW-PCP)", "Section 3")
    result = _simulate(example1_taskset(), "rw-pcp")
    report.check(
        "T2 is ceiling-blocked at t=1 although y is free",
        1.0, result.trace.denials_for("T2#0")[0].time,
    )
    report.check_true(
        "T2's denial is classified as ceiling blocking",
        "ceiling" in result.trace.denials_for("T2#0")[0].rule,
    )
    report.check(
        "T1 is conflict-blocked at t=2",
        2.0, result.trace.denials_for("T1#0")[0].time,
    )
    report.check("T3 completes at 3", 3.0, result.job("T3#0").finish_time)
    report.check("T1 completes at 4", 4.0, result.job("T1#0").finish_time)
    report.check("T2 completes at 5", 5.0, result.job("T2#0").finish_time)
    da = _simulate(example1_taskset(), "pcp-da")
    report.check(
        "PCP-DA avoids both blockings on the same workload",
        0.0, sum(j.total_blocking_time() for j in da.jobs),
    )
    report.artifact = render_gantt(result)
    return report


def run_figure2() -> ExperimentReport:
    """Example 3 under PCP-DA (Figure 2), grant by grant."""
    report = ExperimentReport("Figure 2 (Example 3, PCP-DA)", "Section 6")
    config = SimConfig(horizon=11.0, max_instances=2)
    result = _simulate(example3_taskset(), "pcp-da", config)
    grants_t1 = [
        (g.time, g.item, g.rule) for g in result.trace.grants_for("T1#0")
    ]
    report.check(
        "T1 read-locks write-locked x via LC2 at t=1",
        (1.0, "x", "LC2"), grants_t1[0],
    )
    report.check(
        "T1 read-locks y via LC2 at t=2", (2.0, "y", "LC2"), grants_t1[1]
    )
    report.check("T1#0 completes at 3", 3.0, result.job("T1#0").finish_time)
    report.check(
        "T2 write-locks y at 5 (LC1)",
        (5.0, "y", "LC1"),
        (lambda g: (g.time, g.item, g.rule))(result.trace.grants_for("T2#0")[1]),
    )
    report.check("T1#1 completes at 8", 8.0, result.job("T1#1").finish_time)
    report.check("T2 completes at 9", 9.0, result.job("T2#0").finish_time)
    report.check(
        "no transaction is ever blocked",
        0.0, sum(j.total_blocking_time() for j in result.jobs),
    )
    report.check("no deadline is missed", 0, len(result.missed_jobs))
    report.artifact = render_gantt(result)
    return report


def run_figure3() -> ExperimentReport:
    """Example 3 under RW-PCP (Figure 3): blocking and the missed deadline."""
    report = ExperimentReport("Figure 3 (Example 3, RW-PCP)", "Section 6")
    config = SimConfig(horizon=11.0, max_instances=2)
    result = _simulate(example3_taskset(), "rw-pcp", config)
    t1 = result.job("T1#0")
    report.check(
        "T1 is blocked from 1 to 5 (4 units)",
        (1.0, 5.0), (t1.block_intervals[0].start, t1.block_intervals[0].end),
    )
    report.check("T1 misses its deadline at 6", True, t1.missed_deadline)
    report.check("T1 completes at 7", 7.0, t1.finish_time)
    report.check("T2 completes at 5", 5.0, result.job("T2#0").finish_time)
    report.check(
        "the second instance of T1 meets its deadline",
        False, result.job("T1#1").missed_deadline,
    )
    report.artifact = render_gantt(result)
    return report


def run_figure4() -> ExperimentReport:
    """Example 4 under PCP-DA (Figure 4), including the Max_Sysceil trace."""
    report = ExperimentReport("Figure 4 (Example 4, PCP-DA)", "Section 6")
    result = _simulate(example4_taskset(), "pcp-da")
    report.check(
        "T3 read-locks z through LC4 at t=1 (T*=T4, z∉WriteSet(T4))",
        (1.0, "z", "LC4"),
        (lambda g: (g.time, g.item, g.rule))(result.trace.grants_for("T3#0")[0]),
    )
    report.check(
        "T4 write-locks x at t=3 when it resumes (LC1)",
        (3.0, "x", "LC1"),
        (lambda g: (g.time, g.item, g.rule))(result.trace.grants_for("T4#0")[1]),
    )
    report.check(
        "T1 reads the write-locked x through LC2 at t=4",
        (4.0, "x", "LC2"),
        (lambda g: (g.time, g.item, g.rule))(result.trace.grants_for("T1#0")[0]),
    )
    report.check(
        "completions (T3, T1, T4, T2)",
        (3.0, 6.0, 9.0, 11.0),
        tuple(result.job(f"{name}#0").finish_time for name in ("T3", "T1", "T4", "T2")),
    )
    trace = SysceilTrace.from_result(result)
    p2 = 3
    report.check("Max_Sysceil never exceeds P2", p2, trace.max_level)
    report.check(
        "the ceiling is back to dummy after t=9",
        DUMMY_PRIORITY, trace.level_at(9.5),
    )
    report.check(
        "no transaction is ever blocked",
        0.0, sum(j.total_blocking_time() for j in result.jobs),
    )
    report.artifact = render_gantt(result) + "\n" + trace.render(label="Max_Sysceil")
    return report


def run_figure5() -> ExperimentReport:
    """Example 4 under RW-PCP (Figure 5): the two unnecessary blockings."""
    report = ExperimentReport("Figure 5 (Example 4, RW-PCP)", "Section 6")
    result = _simulate(example4_taskset(), "rw-pcp")
    report.check(
        "T3's effective blocking by T4 is 4 units",
        4.0, result.job("T3#0").total_blocking_time(),
    )
    report.check(
        "T1's effective blocking by T4 is 1 unit",
        1.0, result.job("T1#0").total_blocking_time(),
    )
    report.check(
        "both blockings are attributed to T4",
        (("T4#0",), ("T4#0",)),
        (
            result.job("T3#0").block_intervals[0].blockers,
            result.job("T1#0").block_intervals[0].blockers,
        ),
    )
    trace = SysceilTrace.from_result(result)
    p1 = 4
    report.check("Max_Sysceil reaches P1", p1, trace.max_level)
    da_level = SysceilTrace.from_result(
        _simulate(example4_taskset(), "pcp-da")
    ).max_level
    report.check_true(
        "the Max_Sysceil push-down: PCP-DA's peak is strictly lower",
        da_level < trace.max_level,
        measured=f"PCP-DA {da_level} vs RW-PCP {trace.max_level}",
    )
    report.artifact = render_gantt(result) + "\n" + trace.render(label="Max_Sysceil")
    return report


def run_example5() -> ExperimentReport:
    """Example 5: the deadlock under conditions (1)/(2), avoided by PCP-DA."""
    report = ExperimentReport("Example 5 (deadlock under condition (2))", "Section 7")
    weak = _simulate(
        example5_taskset(), "weak-pcp-da", SimConfig(deadlock_action="halt")
    )
    report.check_true(
        "the weakened protocol deadlocks",
        weak.deadlock is not None,
        measured=weak.deadlock,
    )
    if weak.deadlock is not None:
        report.check(
            "the cycle is T_L <-> T_H",
            ("TH#0", "TL#0"), tuple(sorted(weak.deadlock.cycle)),
        )
    real = _simulate(example5_taskset(), "pcp-da")
    report.check_true(
        "real PCP-DA does not deadlock (LC3/LC4 deny T_H's read)",
        real.deadlock is None,
    )
    report.check(
        "T_L and T_H both commit (at 3 and 5)",
        (3.0, 5.0),
        (real.job("TL#0").finish_time, real.job("TH#0").finish_time),
    )
    report.artifact = render_gantt(real)
    return report
