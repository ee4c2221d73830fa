"""Static specifications of transactions and task sets.

Priorities are plain integers where **larger means higher priority**.  The
paper writes ``T_1 .. T_n`` in *descending* order of priority; the helper
:func:`repro.model.priorities.assign_rate_monotonic` produces the same total
order.  The *dummy* priority from the paper — "lower than the priorities of
all transactions in the system" — is :data:`DUMMY_PRIORITY` (zero); every
real transaction priority must be positive.

Durations and times are floats.  The paper's examples use unit-length
operations; nothing in the engine assumes integral times.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from repro.exceptions import SpecificationError

#: The priority ceiling "lower than the priorities of all transactions"
#: (paper, Example 1).  Real priorities are strictly positive integers.
DUMMY_PRIORITY: int = 0


class OpKind(enum.Enum):
    """Kind of a transaction operation."""

    COMPUTE = "compute"
    READ = "read"
    WRITE = "write"


class LockMode(enum.Enum):
    """Lock modes used by every protocol in this library."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Operation:
    """One step of a transaction's program.

    Attributes:
        kind: read, write, or pure computation.
        item: name of the data item accessed; ``None`` for COMPUTE.
        duration: CPU time the step consumes once it is allowed to run.
    """

    kind: OpKind
    item: Optional[str]
    duration: float

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise SpecificationError(
                f"operation duration must be non-negative, got {self.duration}"
            )
        if self.kind is OpKind.COMPUTE and self.item is not None:
            raise SpecificationError("compute operations must not name a data item")
        if self.kind is not OpKind.COMPUTE and not self.item:
            raise SpecificationError(f"{self.kind.value} operation requires a data item")

    @property
    def lock_mode(self) -> Optional[LockMode]:
        """Lock mode this operation needs, or ``None`` for COMPUTE."""
        if self.kind is OpKind.READ:
            return LockMode.READ
        if self.kind is OpKind.WRITE:
            return LockMode.WRITE
        return None

    def describe(self) -> str:
        """Human-readable one-liner, e.g. ``Read(x, 1.0)``."""
        if self.kind is OpKind.COMPUTE:
            return f"Compute({self.duration:g})"
        return f"{self.kind.value.capitalize()}({self.item}, {self.duration:g})"


def read(item: str, duration: float = 1.0) -> Operation:
    """Build a read operation on ``item`` taking ``duration`` CPU units."""
    return Operation(OpKind.READ, item, duration)


def write(item: str, duration: float = 1.0) -> Operation:
    """Build a (deferred) write operation on ``item``."""
    return Operation(OpKind.WRITE, item, duration)


def compute(duration: float) -> Operation:
    """Build a pure-computation operation (no data access, no lock)."""
    return Operation(OpKind.COMPUTE, None, duration)


@dataclass(frozen=True)
class TransactionSpec:
    """Static description of one periodic transaction.

    Attributes:
        name: unique identifier (``"T1"`` etc.).
        operations: the transaction's program, executed in order.  The lock
            for a read/write step is requested when the step starts; all
            locks are released at commit (end of the last step).
        priority: original (base) priority; larger is higher.  May be left
            ``None`` and filled in by rate-monotonic assignment.
        period: period of the transaction; ``None`` for a one-shot
            (aperiodic) transaction, as in the paper's worked examples.
        offset: release time of the first instance.
        deadline: relative deadline; defaults to the period (paper: "the
            deadline of a transaction is at the end of its period").
    """

    name: str
    operations: Tuple[Operation, ...]
    priority: Optional[int] = None
    period: Optional[float] = None
    offset: float = 0.0
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise SpecificationError("transaction name must be non-empty")
        object.__setattr__(self, "operations", tuple(self.operations))
        if not self.operations:
            raise SpecificationError(f"{self.name}: needs at least one operation")
        if self.period is not None and self.period <= 0:
            raise SpecificationError(f"{self.name}: period must be positive")
        if self.offset < 0:
            raise SpecificationError(f"{self.name}: offset must be non-negative")
        if self.priority is not None and self.priority <= DUMMY_PRIORITY:
            raise SpecificationError(
                f"{self.name}: priority must be greater than the dummy priority "
                f"({DUMMY_PRIORITY})"
            )
        if self.deadline is not None and self.deadline <= 0:
            raise SpecificationError(f"{self.name}: deadline must be positive")

    # ------------------------------------------------------------------
    # Derived, cached views
    # ------------------------------------------------------------------
    # ``functools.cached_property`` stores the computed value in the
    # instance ``__dict__`` directly, which sidesteps the frozen-dataclass
    # ``__setattr__`` guard; the spec is immutable, so the views never go
    # stale.  The hot admission path consults these sets on every lock
    # request — rebuilding the frozensets per call dominated profiles.
    @functools.cached_property
    def execution_time(self) -> float:
        """Total CPU demand ``C_i`` (sum of operation durations)."""
        return sum(op.duration for op in self.operations)

    @functools.cached_property
    def read_set(self) -> FrozenSet[str]:
        """Items this transaction may read (declared read set)."""
        return frozenset(
            op.item for op in self.operations if op.kind is OpKind.READ and op.item
        )

    @functools.cached_property
    def write_set(self) -> FrozenSet[str]:
        """Items this transaction may write — ``WriteSet(T_i)`` in the paper."""
        return frozenset(
            op.item for op in self.operations if op.kind is OpKind.WRITE and op.item
        )

    @functools.cached_property
    def access_set(self) -> FrozenSet[str]:
        """All items this transaction may read or write."""
        return self.read_set | self.write_set

    @property
    def relative_deadline(self) -> Optional[float]:
        """Effective relative deadline (explicit deadline, else the period)."""
        return self.deadline if self.deadline is not None else self.period

    @property
    def utilization(self) -> float:
        """``C_i / Pd_i``; zero for aperiodic transactions."""
        if self.period is None:
            return 0.0
        return self.execution_time / self.period

    def with_priority(self, priority: int) -> "TransactionSpec":
        """Return a copy of this spec with ``priority`` set."""
        return TransactionSpec(
            name=self.name,
            operations=self.operations,
            priority=priority,
            period=self.period,
            offset=self.offset,
            deadline=self.deadline,
        )

    def describe(self) -> str:
        """Multi-line human-readable description of the spec."""
        ops = ", ".join(op.describe() for op in self.operations)
        parts = [f"{self.name}: [{ops}]"]
        if self.priority is not None:
            parts.append(f"priority={self.priority}")
        if self.period is not None:
            parts.append(f"period={self.period:g}")
        parts.append(f"C={self.execution_time:g}")
        return " ".join(parts)


class TaskSet:
    """An ordered collection of :class:`TransactionSpec` with total-order priorities.

    The task set is the unit over which priority ceilings are defined: the
    ceilings depend on *which transactions may access which items*, which is
    static information.  Construction validates that names are unique and
    priorities (when present) form a total order.
    """

    def __init__(self, specs: Iterable[TransactionSpec]):
        specs = tuple(specs)
        if not specs:
            raise SpecificationError("task set must contain at least one transaction")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise SpecificationError(f"duplicate transaction names: {dupes}")
        priorities = [s.priority for s in specs if s.priority is not None]
        if len(priorities) not in (0, len(specs)):
            raise SpecificationError(
                "either all or none of the transactions must carry a priority"
            )
        if priorities and len(set(priorities)) != len(priorities):
            raise SpecificationError(
                "priorities must form a total order (no duplicates); "
                f"got {sorted(priorities)}"
            )
        # Store in descending order of priority when priorities are known,
        # matching the paper's convention (T_1 is the highest priority).
        if priorities:
            specs = tuple(sorted(specs, key=lambda s: -(s.priority or 0)))
        self._specs: Tuple[TransactionSpec, ...] = specs
        self._by_name: Dict[str, TransactionSpec] = {s.name: s for s in specs}

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TransactionSpec]:
        return iter(self._specs)

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    def __getitem__(self, name: str) -> TransactionSpec:
        try:
            return self._by_name[name]
        except KeyError:
            raise SpecificationError(f"no transaction named {name!r}") from None

    @property
    def specs(self) -> Tuple[TransactionSpec, ...]:
        """Transactions in descending priority order (when priorities exist)."""
        return self._specs

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self._specs)

    @property
    def has_priorities(self) -> bool:
        return all(s.priority is not None for s in self._specs)

    @property
    def items(self) -> FrozenSet[str]:
        """Every data item named by any transaction."""
        out: set = set()
        for s in self._specs:
            out |= s.access_set
        return frozenset(out)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def priority_of(self, name: str) -> int:
        """The named transaction's priority (errors when unassigned)."""
        spec = self[name]
        if spec.priority is None:
            raise SpecificationError(f"{name} has no priority assigned")
        return spec.priority

    def readers_of(self, item: str) -> Tuple[TransactionSpec, ...]:
        """Transactions whose declared read set contains ``item``."""
        return tuple(s for s in self._specs if item in s.read_set)

    def writers_of(self, item: str) -> Tuple[TransactionSpec, ...]:
        """Transactions whose declared write set contains ``item``."""
        return tuple(s for s in self._specs if item in s.write_set)

    def total_utilization(self) -> float:
        """Sum of ``C_i / Pd_i`` over periodic transactions."""
        return sum(s.utilization for s in self._specs)

    def hyperperiod(self) -> Optional[float]:
        """Least common multiple of the periods, when they are all integral.

        Returns ``None`` if any transaction is aperiodic or has a
        non-integral period (in which case callers should pick an explicit
        simulation horizon instead).
        """
        periods = []
        for s in self._specs:
            if s.period is None:
                return None
            if abs(s.period - round(s.period)) > 1e-9:
                return None
            periods.append(int(round(s.period)))
        lcm = 1
        for p in periods:
            lcm = lcm * p // math.gcd(lcm, p)
        return float(lcm)

    def describe(self) -> str:
        """Multi-line description of all transactions, highest priority first."""
        return "\n".join(s.describe() for s in self._specs)

    def scaled(self, factor: float) -> "TaskSet":
        """Return a copy with every operation duration multiplied by ``factor``.

        Periods, offsets and deadlines are unchanged; used by the
        breakdown-utilization search in :mod:`repro.analysis`.
        """
        if factor <= 0:
            raise SpecificationError("scale factor must be positive")
        scaled_specs = []
        for s in self._specs:
            ops = tuple(
                Operation(op.kind, op.item, op.duration * factor)
                for op in s.operations
            )
            scaled_specs.append(
                TransactionSpec(
                    name=s.name,
                    operations=ops,
                    priority=s.priority,
                    period=s.period,
                    offset=s.offset,
                    deadline=s.deadline,
                )
            )
        return TaskSet(scaled_specs)
