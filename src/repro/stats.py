"""Batch experiment helpers: seeded sweeps with summary statistics.

The benchmarks and example scripts all follow the same pattern — run many
seeded workloads under several protocols and aggregate a few metrics.
This module factors that pattern into one reusable runner:

    rows = run_batch(
        protocols=["pcp-da", "rw-pcp"],
        workloads=[WorkloadConfig(seed=s, target_utilization=0.6)
                   for s in range(20)],
    )
    table = summarize(rows, by=("protocol",), metric="total_blocking_time")

plus small, dependency-free summary statistics (mean, standard deviation,
and a normal-approximation confidence interval — fine at the sample sizes
the harness uses).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.engine.simulator import SimConfig, Simulator
from repro.protocols import make_protocol
from repro.trace.metrics import compute_metrics
from repro.workloads.generator import WorkloadConfig, generate_taskset


@dataclass(frozen=True)
class BatchRow:
    """One (workload, protocol) simulation outcome."""

    protocol: str
    seed: int
    utilization: float
    total_blocking_time: float
    max_blocking_time: float
    miss_ratio: float
    restarts: int
    mean_response_time: Optional[float]

    def metric(self, name: str) -> float:
        """Look a metric field up by name (KeyError when unavailable)."""
        value = getattr(self, name)
        if value is None:
            raise KeyError(f"metric {name!r} is unavailable on this row")
        return float(value)


@dataclass(frozen=True)
class Summary:
    """Summary statistics of one metric over one group."""

    n: int
    mean: float
    stdev: float
    ci95_half_width: float

    @property
    def ci95(self) -> Tuple[float, float]:
        return (self.mean - self.ci95_half_width, self.mean + self.ci95_half_width)

    def render(self) -> str:
        """``mean ± ci (n=..)`` one-liner."""
        return f"{self.mean:.3f} ± {self.ci95_half_width:.3f} (n={self.n})"


def summarize_values(values: Sequence[float]) -> Summary:
    """Mean / stdev / 95% CI (normal approximation) of a sample."""
    n = len(values)
    if n == 0:
        raise ValueError("cannot summarise an empty sample")
    mean = statistics.mean(values)
    stdev = statistics.stdev(values) if n > 1 else 0.0
    half_width = 1.96 * stdev / math.sqrt(n) if n > 1 else 0.0
    return Summary(n=n, mean=mean, stdev=stdev, ci95_half_width=half_width)


def run_batch(
    protocols: Sequence[str],
    workloads: Sequence[WorkloadConfig],
    *,
    config: Optional[SimConfig] = None,
) -> List[BatchRow]:
    """Simulate every workload under every protocol.

    The same generated task set is reused across protocols for each seed,
    so comparisons are paired.
    """
    sim_config = config or SimConfig(deadlock_action="abort_lowest")
    rows: List[BatchRow] = []
    for workload in workloads:
        taskset = generate_taskset(workload)
        for protocol in protocols:
            result = Simulator(
                taskset, make_protocol(protocol), sim_config
            ).run()
            metrics = compute_metrics(result)
            rows.append(
                BatchRow(
                    protocol=protocol,
                    seed=workload.seed,
                    utilization=taskset.total_utilization(),
                    total_blocking_time=metrics.total_blocking_time,
                    max_blocking_time=metrics.max_blocking_time,
                    miss_ratio=metrics.miss_ratio,
                    restarts=metrics.total_restarts,
                    mean_response_time=metrics.mean_response_time,
                )
            )
    return rows


def summarize(
    rows: Iterable[BatchRow],
    *,
    metric: str,
    by: Sequence[str] = ("protocol",),
) -> Dict[Tuple, Summary]:
    """Group rows by the given fields and summarise one metric per group."""
    groups: Dict[Tuple, List[float]] = {}
    for row in rows:
        key = tuple(getattr(row, field_name) for field_name in by)
        groups.setdefault(key, []).append(row.metric(metric))
    return {key: summarize_values(values) for key, values in groups.items()}


def paired_difference(
    rows: Iterable[BatchRow],
    *,
    metric: str,
    baseline: str,
    contender: str,
) -> Summary:
    """Per-seed paired differences ``baseline - contender`` of a metric.

    A positive mean means the contender improves on the baseline.  Pairing
    by seed removes the across-workload variance that would otherwise
    swamp the comparison.
    """
    per_seed: Dict[int, Dict[str, float]] = {}
    for row in rows:
        per_seed.setdefault(row.seed, {})[row.protocol] = row.metric(metric)
    diffs = [
        values[baseline] - values[contender]
        for values in per_seed.values()
        if baseline in values and contender in values
    ]
    if not diffs:
        raise ValueError(
            f"no seeds carry both {baseline!r} and {contender!r} rows"
        )
    return summarize_values(diffs)
