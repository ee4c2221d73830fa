"""Random periodic transaction-set generation.

Used by the Section 9 schedulability experiments and the protocol
comparison benchmarks.  The generator mirrors the paper's transaction
model: periodic transactions with rate-monotonic priorities over a
memory-resident database, each transaction a straight-line sequence of
read/write/compute operations with a statically declared access set.

Generation is fully deterministic given the config's ``seed``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.exceptions import SpecificationError
from repro.model.priorities import assign_rate_monotonic
from repro.model.spec import Operation, TaskSet, TransactionSpec, compute, read, write


@dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of a random workload.

    Attributes:
        n_transactions: number of periodic transactions.
        n_items: database size (items are named ``d0..d{n-1}``).
        ops_per_txn: inclusive range of data operations per transaction.
        write_probability: chance each data operation is a write.
        op_duration: inclusive range of each operation's CPU time (integer
            grid; the periods are integral so hyperperiods stay finite).
        period_choices: candidate periods (sampled per transaction).  The
            defaults are harmonic-ish values that keep hyperperiods small.
        target_utilization: when set, operation durations are scaled so the
            set's total utilisation approximates it (still on the integer
            grid when possible).
        compute_fraction: chance of inserting a pure-compute operation
            between data operations.
        rmw_probability: chance a write is preceded by a read of the same
            item (a read-modify-write pair, exercising lock upgrades).
        hot_fraction: fraction of the database treated as a hot set.
        hot_access_probability: chance a data operation touches the hot set
            (data contention knob).
        seed: PRNG seed.
    """

    n_transactions: int = 5
    n_items: int = 10
    ops_per_txn: Tuple[int, int] = (2, 4)
    write_probability: float = 0.3
    op_duration: Tuple[float, float] = (1.0, 2.0)
    period_choices: Tuple[float, ...] = (40.0, 80.0, 120.0, 160.0, 240.0, 480.0)
    target_utilization: Optional[float] = None
    compute_fraction: float = 0.25
    rmw_probability: float = 0.0
    hot_fraction: float = 0.2
    hot_access_probability: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_transactions < 1:
            raise SpecificationError("need at least one transaction")
        if self.n_items < 1:
            raise SpecificationError("need at least one data item")
        lo, hi = self.ops_per_txn
        if not (1 <= lo <= hi):
            raise SpecificationError("ops_per_txn must satisfy 1 <= lo <= hi")
        if not (0.0 <= self.write_probability <= 1.0):
            raise SpecificationError("write_probability must be in [0, 1]")
        if not (0.0 <= self.rmw_probability <= 1.0):
            raise SpecificationError("rmw_probability must be in [0, 1]")
        if self.target_utilization is not None and self.target_utilization <= 0:
            raise SpecificationError("target_utilization must be positive")


def _pick_item(rng: random.Random, config: WorkloadConfig) -> str:
    """Sample an item, biased toward the hot set."""
    n_hot = max(1, int(config.n_items * config.hot_fraction))
    if rng.random() < config.hot_access_probability:
        idx = rng.randrange(n_hot)
    else:
        idx = rng.randrange(config.n_items)
    return f"d{idx}"


def _random_operations(
    rng: random.Random, config: WorkloadConfig
) -> List[Operation]:
    lo, hi = config.ops_per_txn
    n_data_ops = rng.randint(lo, hi)
    dur_lo, dur_hi = config.op_duration
    ops: List[Operation] = []
    touched_write: set = set()
    touched_read: set = set()
    for _ in range(n_data_ops):
        if ops and rng.random() < config.compute_fraction:
            ops.append(compute(rng.uniform(dur_lo, dur_hi)))
        item = _pick_item(rng, config)
        duration = rng.uniform(dur_lo, dur_hi)
        if rng.random() < config.write_probability:
            if item in touched_write:
                continue  # one write per item is enough
            touched_write.add(item)
            if (
                item not in touched_read
                and rng.random() < config.rmw_probability
            ):
                # Read-modify-write: the read precedes the write, so the
                # transaction performs a lock upgrade on the item.
                touched_read.add(item)
                ops.append(read(item, rng.uniform(dur_lo, dur_hi)))
            ops.append(write(item, duration))
        else:
            if item in touched_read or item in touched_write:
                continue  # re-reads add nothing under lock-until-commit
            touched_read.add(item)
            ops.append(read(item, duration))
    if not ops:
        ops.append(read(_pick_item(rng, config), rng.uniform(dur_lo, dur_hi)))
    return ops


def generate_taskset(config: WorkloadConfig) -> TaskSet:
    """Generate a rate-monotonic periodic task set per ``config``."""
    rng = random.Random(config.seed)
    specs: List[TransactionSpec] = []
    periods = sorted(
        rng.choice(config.period_choices) for _ in range(config.n_transactions)
    )
    for i, period in enumerate(periods):
        ops = _random_operations(rng, config)
        specs.append(
            TransactionSpec(
                name=f"T{i + 1}",
                operations=tuple(ops),
                period=period,
                offset=0.0,
            )
        )
    taskset = assign_rate_monotonic(TaskSet(specs))

    if config.target_utilization is not None:
        current = taskset.total_utilization()
        if current <= 0:
            raise SpecificationError("generated set has zero utilisation")
        factor = config.target_utilization / current
        taskset = taskset.scaled(factor)
        # Scaling can push a C_i past its period; clamp by rescaling down.
        worst = max(s.execution_time / s.period for s in taskset)  # type: ignore[operator]
        if worst > 0.95:
            taskset = taskset.scaled(0.95 / worst)
    return taskset
