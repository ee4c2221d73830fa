"""Runtime state of a transaction instance (a *job*).

A job is one release of a periodic transaction: ``T2#0`` is the first
instance of ``T2``.  For serializability purposes each job is an independent
transaction; for scheduling purposes all instances of a spec share the same
base priority.

The job tracks everything the protocols consult at decision time:

* ``data_read`` — the paper's ``DataRead(T_i)``, the items the job has
  actually read so far (excluding reads satisfied from its own buffered
  writes; those create no inter-transaction dependency);
* the current running (possibly inherited) priority;
* held locks live in the shared :class:`~repro.engine.lock_table.LockTable`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Set, Tuple

from repro._compat import DATACLASS_SLOTS
from repro.engine.workspace import Workspace
from repro.exceptions import SimulationError
from repro.model.spec import LockMode, Operation, TransactionSpec


class JobState(enum.Enum):
    """Lifecycle of a job."""

    READY = "ready"        # released, wants the CPU
    RUNNING = "running"    # executing on the CPU
    BLOCKED = "blocked"    # waiting for a lock
    COMMITTED = "committed"
    #: Terminal drop under the firm-deadline policy
    #: (``SimConfig.on_miss="abort"``): the job's work is discarded at its
    #: deadline and never re-executed.
    DROPPED = "dropped"

    @property
    def active(self) -> bool:
        return self not in (JobState.COMMITTED, JobState.DROPPED)


@dataclass(**DATACLASS_SLOTS)
class BlockInterval:
    """One contiguous interval during which the job waited for a lock."""

    start: float
    end: Optional[float]
    item: str
    mode: LockMode
    blockers: Tuple[str, ...]
    reason: str

    @property
    def duration(self) -> float:
        if self.end is None:
            raise SimulationError("block interval still open")
        return self.end - self.start


class Job:
    """Mutable runtime state of one transaction instance.

    ``__slots__`` is deliberate: sweeps release millions of jobs, and the
    dispatcher touches ``state`` / ``running_priority`` / ``seq`` on every
    event, so skipping the per-instance ``__dict__`` is a measurable win.
    """

    __slots__ = (
        "spec", "instance", "arrival", "name", "seq", "state", "pc",
        "op_remaining", "op_started", "completion_token",
        "scheduled_completion", "base_priority", "running_priority", "dkey",
        "workspace", "data_read", "block_intervals",
        "finish_time", "restarts", "preemptions", "grant_rules",
    )

    _seq_counter = 0

    def __init__(self, spec: TransactionSpec, instance: int, arrival: float):
        if spec.priority is None:
            raise SimulationError(f"{spec.name}: cannot release a job without a priority")
        self.spec = spec
        self.instance = instance
        self.arrival = arrival
        self.name = f"{spec.name}#{instance}"
        Job._seq_counter += 1
        #: Global release sequence; used only as a deterministic tie-breaker.
        self.seq = Job._seq_counter

        self.state = JobState.READY
        self.pc = 0  # index of the current operation
        self.op_remaining = spec.operations[0].duration
        #: True once the current operation's lock is held and its read/write
        #: side effect has been initiated.
        self.op_started = False
        #: Bumped on preemption so stale op-completion events are ignored.
        self.completion_token = 0
        #: Time of the currently scheduled (valid) completion event, if any.
        self.scheduled_completion: Optional[float] = None

        self.base_priority: int = spec.priority
        self.running_priority: int = spec.priority
        #: Materialised :meth:`dispatch_key`, rebuilt whenever
        #: ``running_priority`` changes (the dispatcher compares keys on
        #: every event; priority changes are orders of magnitude rarer).
        self.dkey: Tuple[int, float, int] = (-spec.priority, arrival, self.seq)

        self.workspace = Workspace()
        self.data_read: Set[str] = set()

        # ---- statistics -------------------------------------------------
        self.block_intervals: List[BlockInterval] = []
        self.finish_time: Optional[float] = None
        self.restarts = 0
        self.preemptions = 0
        self.grant_rules: List[Tuple[float, str, LockMode, str]] = []

    # ------------------------------------------------------------------
    # Program counter helpers
    # ------------------------------------------------------------------
    @property
    def current_op(self) -> Optional[Operation]:
        if self.pc >= len(self.spec.operations):
            return None
        return self.spec.operations[self.pc]

    @property
    def finished_program(self) -> bool:
        return self.pc >= len(self.spec.operations)

    @property
    def absolute_deadline(self) -> Optional[float]:
        rel = self.spec.relative_deadline
        return None if rel is None else self.arrival + rel

    @property
    def response_time(self) -> Optional[float]:
        if self.finish_time is None:
            return None
        return self.finish_time - self.arrival

    @property
    def missed_deadline(self) -> bool:
        """A job misses when it finishes strictly after its deadline, or
        never finishes (evaluated by the caller at the horizon)."""
        deadline = self.absolute_deadline
        if deadline is None:
            return False
        if self.finish_time is None:
            return True
        return self.finish_time > deadline + 1e-9

    # ------------------------------------------------------------------
    # Blocking bookkeeping
    # ------------------------------------------------------------------
    def begin_block(
        self,
        time: float,
        item: str,
        mode: LockMode,
        blockers: Tuple[str, ...],
        reason: str,
    ) -> None:
        """Open a blocking interval: the job now waits for ``item``."""
        self.block_intervals.append(
            BlockInterval(time, None, item, mode, blockers, reason)
        )

    def end_block(self, time: float) -> None:
        """Close the currently open blocking interval at ``time``."""
        if not self.block_intervals or self.block_intervals[-1].end is not None:
            raise SimulationError(f"{self.name}: no open block interval to close")
        self.block_intervals[-1].end = time

    def total_blocking_time(self) -> float:
        """Total time spent waiting for locks (closed intervals only)."""
        return sum(b.duration for b in self.block_intervals if b.end is not None)

    def distinct_blockers(self) -> FrozenSet[str]:
        """Names of base transactions (not instances) that ever blocked this job."""
        out: Set[str] = set()
        for b in self.block_intervals:
            for blocker in b.blockers:
                out.add(blocker.split("#", 1)[0])
        return frozenset(out)

    # ------------------------------------------------------------------
    # Restart (abort-based protocols only)
    # ------------------------------------------------------------------
    def restart(self) -> None:
        """Reset the job to re-execute from its first operation."""
        self.pc = 0
        self.op_remaining = self.spec.operations[0].duration
        self.op_started = False
        self.completion_token += 1
        self.scheduled_completion = None
        self.workspace.discard()
        self.data_read.clear()
        self.running_priority = self.base_priority
        self.dkey = (-self.base_priority, self.arrival, self.seq)
        self.restarts += 1
        self.state = JobState.READY

    # ------------------------------------------------------------------
    # Ordering for the dispatcher
    # ------------------------------------------------------------------
    def dispatch_key(self) -> Tuple[int, float, int]:
        """Sort key: higher running priority first, then FIFO by release.

        Hot paths read the materialised :attr:`dkey` directly; this method
        is the readable accessor for everyone else.
        """
        return self.dkey

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Job({self.name}, state={self.state.value}, pc={self.pc}, "
            f"prio={self.running_priority}/{self.base_priority})"
        )
