"""Raw trace recording during a simulation run.

The recorder is append-only and cheap; everything analytical (timelines,
metrics, Gantt charts) is derived afterwards.  Three event streams are kept:

* scheduling events — arrivals, dispatches, preemptions, commits, aborts,
  deadline misses;
* lock events — every protocol decision, with the rule that fired ("LC2",
  "ceiling blocking", ...) and the blockers on denial;
* execution segments — half-open intervals during which a job held the CPU;
* system-ceiling samples — the global ceiling level each time it changes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro._compat import DATACLASS_SLOTS
from repro.model.spec import LockMode


class SchedEventKind(enum.Enum):
    ARRIVAL = "arrival"
    DISPATCH = "dispatch"
    PREEMPT = "preempt"
    COMMIT = "commit"
    ABORT = "abort"
    MISS = "miss"
    HORIZON = "horizon"


@dataclass(**DATACLASS_SLOTS)
class SchedEvent:
    """One scheduling event.

    ``other`` names a second involved job when meaningful (the preemptor
    for PREEMPT, the aborter for ABORT).
    """

    time: float
    kind: SchedEventKind
    job: str
    other: Optional[str] = None


class LockOutcome(enum.Enum):
    GRANTED = "granted"
    DENIED = "denied"
    ABORT_GRANTED = "abort_granted"  # granted after aborting victims


@dataclass(**DATACLASS_SLOTS)
class LockEvent:
    """One protocol decision.

    Attributes:
        time: decision time.
        job: requesting job.
        item: data item.
        mode: requested lock mode.
        outcome: granted / denied / granted-after-abort.
        rule: the locking condition or denial reason reported by the
            protocol (e.g. ``"LC2"``, ``"ceiling blocking"``).
        blockers: blocking jobs (denials) or victims (abort-grants).
    """

    time: float
    job: str
    item: str
    mode: LockMode
    outcome: LockOutcome
    rule: str
    blockers: Tuple[str, ...] = ()


@dataclass(**DATACLASS_SLOTS)
class ExecSegment:
    """A half-open interval [start, end) during which ``job`` ran on the CPU."""

    job: str
    start: float
    end: float


class TraceRecorder:
    """Collects the event streams of one run."""

    def __init__(self) -> None:
        self.sched_events: List[SchedEvent] = []
        self.lock_events: List[LockEvent] = []
        self.segments: List[ExecSegment] = []
        self.sysceil_samples: List[Tuple[float, int]] = []
        #: (time, job, new running priority) — recorded whenever priority
        #: inheritance (or an IPCP ceiling floor) changes a job's level.
        self.priority_changes: List[Tuple[float, str, int]] = []
        #: Last recorded level per job — the duplicate-collapse test in
        #: :meth:`priority` without scanning the stream backwards.
        self._last_priority: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Scheduling stream
    # ------------------------------------------------------------------
    def sched(
        self,
        time: float,
        kind: SchedEventKind,
        job: str,
        other: Optional[str] = None,
    ) -> None:
        """Record one scheduling event."""
        self.sched_events.append(SchedEvent(time, kind, job, other))

    # ------------------------------------------------------------------
    # Lock stream
    # ------------------------------------------------------------------
    def lock(
        self,
        time: float,
        job: str,
        item: str,
        mode: LockMode,
        outcome: LockOutcome,
        rule: str,
        blockers: Tuple[str, ...] = (),
    ) -> None:
        """Record one protocol decision."""
        self.lock_events.append(
            LockEvent(time, job, item, mode, outcome, rule, blockers)
        )

    # ------------------------------------------------------------------
    # CPU stream
    # ------------------------------------------------------------------
    def segment(self, job: str, start: float, end: float) -> None:
        """Record a CPU slice; adjacent slices of the same job coalesce."""
        if end <= start:
            return
        segments = self.segments
        if segments:
            last = segments[-1]
            if last.job == job and abs(last.end - start) < 1e-12:
                last.end = end  # coalesce in place
                return
        segments.append(ExecSegment(job, start, end))

    # ------------------------------------------------------------------
    # Priority stream
    # ------------------------------------------------------------------
    def priority(self, time: float, job: str, level: int) -> None:
        """Record a running-priority change; consecutive duplicates for
        the same job collapse."""
        if self._last_priority.get(job) == level:
            return
        self._last_priority[job] = level
        self.priority_changes.append((time, job, level))

    def priority_history(self, job: str) -> List[Tuple[float, int]]:
        """(time, level) changes of one job, in order."""
        return [
            (time, level)
            for time, changed_job, level in self.priority_changes
            if changed_job == job
        ]

    # ------------------------------------------------------------------
    # Ceiling stream
    # ------------------------------------------------------------------
    def sysceil(self, time: float, level: int) -> None:
        """Record the global system ceiling; consecutive equal levels collapse."""
        if self.sysceil_samples:
            last_t, last_level = self.sysceil_samples[-1]
            if last_level == level:
                return
            if abs(last_t - time) < 1e-12:
                self.sysceil_samples[-1] = (time, level)
                return
        self.sysceil_samples.append((time, level))

    # ------------------------------------------------------------------
    # Convenience queries (tests lean on these)
    # ------------------------------------------------------------------
    def grants_for(self, job: str) -> List[LockEvent]:
        """Lock grants of one job, in order (abort-grants included)."""
        return [
            e
            for e in self.lock_events
            if e.job == job
            and e.outcome in (LockOutcome.GRANTED, LockOutcome.ABORT_GRANTED)
        ]

    def denials_for(self, job: str) -> List[LockEvent]:
        """Lock denials of one job, in order."""
        return [
            e
            for e in self.lock_events
            if e.job == job and e.outcome is LockOutcome.DENIED
        ]

    def segments_for(self, job: str) -> List[ExecSegment]:
        """CPU slices of one job, in order."""
        return [s for s in self.segments if s.job == job]
