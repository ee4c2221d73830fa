"""The discrete-event simulator: one CPU, priority-driven, lock-aware.

Model (paper, Section 5): a single processor with a memory-resident
database; periodic transactions with total-order priorities; the
highest-running-priority ready transaction executes; a transaction requests
the lock for an operation when the operation starts, and releases all locks
at commit (unless the protocol releases some earlier, as CCP does).

Determinism: the event calendar breaks time ties by insertion order, and
the dispatcher breaks priority ties by release order, so a given
(task set, protocol, config) triple always produces the identical trace.
"""

from __future__ import annotations

import heapq
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.db.database import Database
from repro.db.history import History
from repro.db.serializability import check_serializable
from repro.db.values import write_digest
from repro.engine.event_queue import EventQueue, ScheduledEvent
from repro.engine.inheritance import WaitForGraph
from repro.engine.interfaces import (
    AbortAndGrant,
    ConcurrencyControlProtocol,
    Deny,
    Grant,
    InstallPolicy,
)
from repro.engine.job import Job, JobState
from repro.engine.kernel import build_kernel
from repro.engine.lock_table import LockTable
from repro.exceptions import (
    DeadlockError,
    SimulationError,
    SpecificationError,
)
from repro.model.spec import LockMode, OpKind, TaskSet
from repro.model.validation import validate_taskset
from repro.trace.recorder import (
    LockOutcome,
    SchedEventKind,
    TraceRecorder,
)

_EPS = 1e-9
_release_seq = operator.attrgetter("seq")


@dataclass(frozen=True)
class SimConfig:
    """Run-level configuration.

    Attributes:
        horizon: simulation end time.  Arrivals at or after the horizon are
            not released; processing stops at the horizon.  When ``None``
            and the task set is periodic with an integral hyperperiod, one
            hyperperiod is simulated; one-shot task sets run to completion.
        max_instances: cap on instances per transaction (``None`` = only
            bounded by the horizon; one-shot transactions always release
            exactly one instance).
        deadlock_action: what to do when a wait-for cycle appears —
            ``"raise"`` (default; PCP-DA and RW-PCP are proven
            deadlock-free, so a cycle is an error), ``"halt"`` (stop and
            report the cycle in the result, used to demonstrate Example 5),
            or ``"abort_lowest"`` (abort the lowest-priority job in the
            cycle and continue; for plain-2PL-style baselines).
        on_miss: deadline policy — ``"record"`` (default: the miss is
            recorded and the job runs to completion, keeping blocking
            statistics well defined) or ``"abort"`` (firm deadlines: the
            job is dropped at its deadline, its locks released and its
            workspace discarded; requires a deferred-update protocol).
        lock_overhead: CPU time consumed by each successful lock
            acquisition (added to the acquiring operation).
        context_switch_overhead: CPU time charged to the incoming job on a
            preemptive switch (the outgoing job still had work); switches
            caused by commits or blocking are not charged.
        record_sysceil: sample the global system ceiling after every event
            (the ``Max_Sysceil`` traces of Figures 4/5).
        max_events: hard cap on processed events (runaway guard).
        kernel: answer admission decisions and ceiling samples from the
            array kernel (:mod:`repro.engine.kernel`) when the protocol
            compiles to a decision table; protocols without a table (and
            ``kernel=False`` runs) use the object path.  Byte-identical
            by construction and pinned by the golden/differential
            batteries; under ``debug_invariants`` the object path decides
            and every kernel answer is cross-checked against it.
        debug_invariants: after every event batch, cross-check the
            incremental scheduler state (ready heap, blocked set, active
            index, the kernel's lock words and ceiling index) against a
            from-scratch recomputation.  Slow; exists for the differential battery,
            which uses it to prove the fast path is observationally
            identical to filtering ``jobs`` per event.
    """

    horizon: Optional[float] = None
    max_instances: Optional[int] = None
    deadlock_action: str = "raise"
    on_miss: str = "record"
    lock_overhead: float = 0.0
    context_switch_overhead: float = 0.0
    record_sysceil: bool = True
    max_events: int = 1_000_000
    kernel: bool = True
    debug_invariants: bool = False

    def __post_init__(self) -> None:
        if self.deadlock_action not in ("raise", "halt", "abort_lowest"):
            raise SpecificationError(
                f"unknown deadlock_action {self.deadlock_action!r}"
            )
        if self.on_miss not in ("record", "abort"):
            raise SpecificationError(f"unknown on_miss policy {self.on_miss!r}")
        if self.lock_overhead < 0 or self.context_switch_overhead < 0:
            raise SpecificationError("overheads must be non-negative")
        if self.horizon is not None and self.horizon <= 0:
            raise SpecificationError("horizon must be positive")


@dataclass
class DeadlockInfo:
    """Details of a halted run (``deadlock_action="halt"`` only)."""

    time: float
    cycle: Tuple[str, ...]


@dataclass
class SimulationResult:
    """Everything observable about one run."""

    taskset: TaskSet
    protocol_name: str
    jobs: Tuple[Job, ...]
    history: History
    trace: TraceRecorder
    database: Database
    end_time: float
    deadlock: Optional[DeadlockInfo] = None
    aborted_restarts: int = 0

    def job(self, name: str) -> Job:
        """Look up a job by its instance name, e.g. ``"T1#0"``."""
        for j in self.jobs:
            if j.name == name:
                return j
        raise KeyError(name)

    def jobs_of(self, transaction: str) -> Tuple[Job, ...]:
        """All instances of the named transaction, in release order."""
        return tuple(j for j in self.jobs if j.spec.name == transaction)

    @property
    def committed_jobs(self) -> Tuple[Job, ...]:
        return tuple(j for j in self.jobs if j.state is JobState.COMMITTED)

    @property
    def missed_jobs(self) -> Tuple[Job, ...]:
        return tuple(j for j in self.jobs if j.missed_deadline)

    def check_serializable(self):
        """Assert the committed history is conflict serializable; returns SG(H)."""
        return check_serializable(self.history)


class Simulator:
    """Simulates a task set under one concurrency-control protocol."""

    def __init__(
        self,
        taskset: TaskSet,
        protocol: ConcurrencyControlProtocol,
        config: Optional[SimConfig] = None,
        database: Optional[Database] = None,
    ):
        validate_taskset(taskset, require_priorities=True)
        self.taskset = taskset
        self.protocol = protocol
        self.config = config or SimConfig()
        self.db = database or Database(sorted(taskset.items))
        self.queue = EventQueue()
        self.table = LockTable()
        self.waits = WaitForGraph()
        self.history = History()
        self.trace = TraceRecorder()
        self.jobs: List[Job] = []
        self._running: Optional[Job] = None
        self._run_start = 0.0
        self._locks_dirty = False
        # ---- incremental scheduler state --------------------------------
        # Maintained on state transitions instead of recomputed by
        # filtering ``self.jobs`` per event; see docs/ENGINE.md
        # ("Incremental scheduler state") for the invariants and the
        # differential battery that guards them.
        #: Active (non-terminal) jobs in release order (dict = ordered set).
        self._active: Dict[Job, None] = {}
        #: Currently BLOCKED jobs (dict = ordered set).
        self._blocked: Dict[Job, None] = {}
        #: Lazy min-heap of (dispatch_key, push seq, job) over READY jobs.
        #: An entry is live iff the job is still READY *and* the stored key
        #: equals its current dispatch key; every transition into READY and
        #: every priority change of a READY job pushes a fresh entry, so
        #: outdated ones are simply skipped at pop time.
        self._ready_heap: List[Tuple[Tuple[int, float, int], int, Job]] = []
        self._ready_pushes = 0
        #: Per-denial blocker-name tuples, memoised by blocker identity
        #: (repeat denials by the same holders are the common case).
        self._blocker_names: Dict[Tuple[Job, ...], Tuple[str, ...]] = {}
        self._halted: Optional[DeadlockInfo] = None
        self._restart_count = 0
        self._started = False
        self._finalized = False
        self._events_processed = 0
        self._end_time = 0.0
        self.protocol.bind(taskset, self.table)
        self.protocol.bind_runtime(self.waits)
        # Skip the priority-floor calls entirely for protocols using the
        # inert default (max(base, DUMMY) is a no-op); IPCP keeps its floor.
        self._floor = (
            None
            if type(self.protocol).priority_floor
            is ConcurrencyControlProtocol.priority_floor
            else self.protocol.priority_floor
        )
        # Same inert-default elision for the other per-event protocol
        # hooks: only CCP releases early, only OCC-BC aborts at commit,
        # and nothing in the library overrides the grant/release hooks —
        # ``None`` here means "don't even make the call".
        proto_type = type(self.protocol)
        base = ConcurrencyControlProtocol
        self._after_op = (
            None if proto_type.after_operation is base.after_operation
            else self.protocol.after_operation
        )
        self._before_commit = (
            None if proto_type.before_commit is base.before_commit
            else self.protocol.before_commit
        )
        self._on_granted = (
            None if proto_type.on_granted is base.on_granted
            else self.protocol.on_granted
        )
        self._on_release_all = (
            None if proto_type.on_release_all is base.on_release_all
            else self.protocol.on_release_all
        )
        # ---- array kernel ----------------------------------------------
        self.kernel = (
            build_kernel(self.protocol, self.table, self.waits)
            if self.config.kernel
            else None
        )
        if self.kernel is None:
            self._decide = self.protocol.decide
            self._sysceil = self.protocol.system_ceiling
        elif self.config.debug_invariants:
            # Reference path decides; every kernel answer is cross-checked.
            self._decide = self._decide_checked
            self._sysceil = self._sysceil_checked
        else:
            self._decide = self.kernel.decide
            self._sysceil = self.kernel.system_ceiling

        if (
            self.config.on_miss == "abort"
            and self.protocol.install_policy is not InstallPolicy.AT_COMMIT
        ):
            raise SpecificationError(
                f"{self.protocol.name}: firm deadlines (on_miss='abort') "
                "require deferred updates; dropping a transaction that "
                "installed writes in place would need undo"
            )

        self._horizon = self._effective_horizon()

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------
    def _effective_horizon(self) -> Optional[float]:
        if self.config.horizon is not None:
            return self.config.horizon
        if all(s.period is None for s in self.taskset):
            return None  # one-shot: run to completion
        hp = self.taskset.hyperperiod()
        if hp is None:
            raise SpecificationError(
                "periodic task set without an integral hyperperiod: "
                "an explicit SimConfig.horizon is required"
            )
        max_offset = max(s.offset for s in self.taskset)
        return hp + max_offset

    def _instances_allowed(self, next_instance: int) -> bool:
        if self.config.max_instances is None:
            return True
        return next_instance < self.config.max_instances

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run to completion (or the horizon) and return the result."""
        self.start()
        self.advance()
        return self.finalize()

    def start(self) -> None:
        """Seed the calendar with the initial releases.

        Part of the stepping API: ``start()`` once, then ``advance(until)``
        any number of times, then ``finalize()``.  ``run()`` is the
        one-shot composition of the three.
        """
        if self._started:
            raise SimulationError("simulation already started")
        self._started = True
        for spec in self.taskset:
            if self._horizon is None or spec.offset < self._horizon - _EPS:
                self.queue.push(spec.offset, "arrival", (spec, 0))

    def advance(self, until: Optional[float] = None) -> float:
        """Process events up to and including time ``until``.

        With ``until=None`` runs to the horizon / quiescence.  Returns the
        current simulation time.  Between calls the simulator's live state
        (``jobs``, ``table``, ``waits``, the partially-built trace) can be
        inspected — the basis for interactive debugging and for tests that
        assert on intermediate lock-table states.
        """
        if not self._started:
            raise SimulationError("advance() before start()")
        if self._finalized:
            raise SimulationError("simulation already finalized")
        # Loop-invariant lookups, hoisted: the body runs once per calendar
        # event and these attribute chains show up in profiles.
        queue = self.queue
        max_events = self.config.max_events
        horizon = self._horizon
        record_sysceil = self.config.record_sysceil
        debug_invariants = self.config.debug_invariants
        while queue:
            if self._events_processed >= max_events:
                raise SimulationError(
                    f"event cap ({max_events}) exceeded; "
                    "likely a livelock in the protocol under test"
                )
            next_time = queue.peek_time()
            if (
                horizon is not None
                and next_time is not None
                and next_time > horizon + _EPS
            ):
                break
            if until is not None and next_time is not None and next_time > until + _EPS:
                break
            event = queue.pop()
            self._events_processed += 1
            now = event.time
            if now > self._end_time:
                self._end_time = now
            self._charge_running(now)
            self._handle(event)
            # Drain every event scheduled for this same instant before
            # dispatching: a transaction arriving at time t must see the
            # state *after* completions at time t (paper: "at time 3, T3
            # completes and releases its locks; T4 resumes"), and a job
            # whose operation completed at t must not request its next
            # lock until same-time arrivals have been released.
            while self._halted is None:
                next_time = queue.peek_time()
                if next_time is None or next_time > now + _EPS:
                    break
                same_time_event = queue.pop()
                self._events_processed += 1
                self._handle(same_time_event)
            if self._halted is not None:
                break
            self._dispatch(now)
            if self._halted is not None:
                break
            if record_sysceil:
                self.trace.sysceil(now, self._sysceil(None))
            if debug_invariants:
                self._verify_incremental_state()
        return queue.now

    def finalize(self) -> SimulationResult:
        """Close the run (horizon accounting) and build the result."""
        if not self._started:
            raise SimulationError("finalize() before start()")
        if self._finalized:
            raise SimulationError("simulation already finalized")
        self._finalized = True
        end_time = self._end_time
        if self._horizon is not None:
            final = self._horizon if self.queue else min(end_time, self._horizon)
            if self._running is not None:
                self._charge_running(max(final, self.queue.now))
            end_time = max(end_time, final) if self.queue else end_time
            if self.queue:
                end_time = self._horizon
                self.trace.sched(end_time, SchedEventKind.HORIZON, "-")

        return SimulationResult(
            taskset=self.taskset,
            protocol_name=self.protocol.name,
            jobs=tuple(self.jobs),
            history=self.history,
            trace=self.trace,
            database=self.db,
            end_time=end_time,
            deadlock=self._halted,
            aborted_restarts=self._restart_count,
        )

    @property
    def events_processed(self) -> int:
        """Calendar events processed so far (perf-harness accounting)."""
        return self._events_processed

    # ------------------------------------------------------------------
    # Incremental scheduler state
    # ------------------------------------------------------------------
    def _push_ready(self, job: Job) -> None:
        """Add/refresh the heap entry for a job that is (now) READY."""
        self._ready_pushes += 1
        heapq.heappush(
            self._ready_heap, (job.dkey, self._ready_pushes, job)
        )

    def _peek_ready(self) -> Optional[Job]:
        """Highest-priority READY job; discards outdated heap entries."""
        heap = self._ready_heap
        while heap:
            key, _, job = heap[0]
            if job.state is JobState.READY and key == job.dkey:
                return job
            heapq.heappop(heap)
        return None

    def _verify_incremental_state(self) -> None:
        """Cross-check the incremental indexes against from-scratch filters.

        Only runs under ``SimConfig.debug_invariants`` — this is the
        differential battery's hook, not a production path.
        """
        expected_active = [j for j in self.jobs if j.state.active]
        if list(self._active) != expected_active:
            raise SimulationError(
                "active index diverged: "
                f"{[j.name for j in self._active]} != "
                f"{[j.name for j in expected_active]}"
            )
        expected_blocked = {j for j in self.jobs if j.state is JobState.BLOCKED}
        if set(self._blocked) != expected_blocked:
            raise SimulationError(
                "blocked index diverged: "
                f"{sorted(j.name for j in self._blocked)} != "
                f"{sorted(j.name for j in expected_blocked)}"
            )
        candidates = [
            j for j in self.jobs
            if j.state in (JobState.READY, JobState.RUNNING)
        ]
        slow = min(candidates, key=Job.dispatch_key) if candidates else None
        fast = self._peek_ready()
        running = self._running
        if (
            running is not None
            and running.state is JobState.RUNNING
            and (fast is None or running.dispatch_key() < fast.dispatch_key())
        ):
            fast = running
        if fast is not slow:
            raise SimulationError(
                "ready-heap best diverged: "
                f"{fast.name if fast else None} != "
                f"{slow.name if slow else None}"
            )
        if self.kernel is not None:
            self.kernel.self_check()  # includes the wait graph's
        else:
            self.waits.self_check()

    # ------------------------------------------------------------------
    # Kernel cross-checking (debug_invariants only)
    # ------------------------------------------------------------------
    def _decide_checked(self, job: Job, item: str, mode: LockMode):
        """Object-path decision, with the kernel's answer asserted equal
        field-by-field (the per-request half of the differential battery;
        the object decision is the one acted on)."""
        reference = self.protocol.decide(job, item, mode)
        fast = self.kernel.decide(job, item, mode)
        mismatch = type(fast) is not type(reference)
        if not mismatch:
            if isinstance(reference, Grant):
                mismatch = fast.rule != reference.rule
            else:  # the kernel never emits AbortAndGrant
                mismatch = (
                    fast.blockers != reference.blockers
                    or fast.reason != reference.reason
                    or fast.inherit != reference.inherit
                )
        if mismatch:
            raise SimulationError(
                f"kernel decision diverged for {job.name}/{item}/{mode}: "
                f"kernel={fast!r} reference={reference!r}"
            )
        return reference

    def _sysceil_checked(self, exclude: Optional[Job]) -> int:
        reference = self.protocol.system_ceiling(exclude)
        fast = self.kernel.system_ceiling(exclude)
        if fast != reference:
            raise SimulationError(
                f"kernel system ceiling diverged: "
                f"kernel={fast} reference={reference}"
            )
        return reference

    # ------------------------------------------------------------------
    # Time accounting
    # ------------------------------------------------------------------
    def _charge_running(self, now: float) -> None:
        """Charge elapsed CPU time to the running job and record the slice."""
        job = self._running
        if job is None:
            self._run_start = now
            return
        elapsed = now - self._run_start
        if elapsed > _EPS:
            job.op_remaining -= elapsed
            if job.op_remaining < -1e-6:
                raise SimulationError(
                    f"{job.name}: operation over-ran by {-job.op_remaining}"
                )
            job.op_remaining = max(job.op_remaining, 0.0)
            self.trace.segment(job.name, self._run_start, now)
        self._run_start = now

    # ------------------------------------------------------------------
    # Event handling
    # ------------------------------------------------------------------
    def _handle(self, event: ScheduledEvent) -> None:
        if event.kind == "arrival":
            spec, instance = event.payload
            self._handle_arrival(spec, instance, event.time)
        elif event.kind == "op_done":
            job, token = event.payload
            self._handle_op_done(job, token, event.time)
        elif event.kind == "deadline":
            self._handle_deadline(event.payload, event.time)
        else:  # pragma: no cover - defensive
            raise SimulationError(f"unknown event kind {event.kind!r}")

    def _handle_arrival(self, spec, instance: int, now: float) -> None:
        job = Job(spec, instance, now)
        self.jobs.append(job)
        self._active[job] = None
        self._push_ready(job)
        self.trace.sched(now, SchedEventKind.ARRIVAL, job.name)
        if self.config.on_miss == "abort" and job.absolute_deadline is not None:
            self.queue.push(job.absolute_deadline, "deadline", job)
        if spec.period is not None and self._instances_allowed(instance + 1):
            next_time = now + spec.period
            if self._horizon is None or next_time < self._horizon - _EPS:
                self.queue.push(next_time, "arrival", (spec, instance + 1))

    def _handle_deadline(self, job: Job, now: float) -> None:
        """Firm-deadline drop: discard an uncommitted job at its deadline."""
        if not job.state.active:
            return  # committed in time (or already dropped)
        if job.state is JobState.BLOCKED:
            job.end_block(now)
        if self._running is job:
            self._running = None
        self.table.release_all(job)
        if self._on_release_all is not None:
            self._on_release_all(job)
        self.waits.forget(job)
        self._recompute_priorities()
        job.workspace.discard()
        job.completion_token += 1
        job.scheduled_completion = None
        job.pending_request = None
        job.state = JobState.DROPPED
        self._active.pop(job, None)
        self._blocked.pop(job, None)
        self.history.record_abort(job.name, now)
        self.trace.sched(now, SchedEventKind.MISS, job.name)
        self._locks_dirty = True

    def _handle_op_done(self, job: Job, token: int, now: float) -> None:
        if token != job.completion_token or job.state is not JobState.RUNNING:
            return  # stale completion from before a preemption/reschedule
        if job.op_remaining > _EPS:
            return  # stale: rescheduled later
        job.scheduled_completion = None
        op = job.current_op
        assert op is not None
        op_index = job.pc

        if op.kind is OpKind.WRITE:
            self._apply_write(job, op.item, now)

        job.pc += 1
        job.op_started = False

        if self._after_op is not None:
            released_early = False
            for item, mode in self._after_op(job, op_index):
                self.table.release(job, item, mode)
                released_early = True
                self._locks_dirty = True
            if released_early:
                self._recompute_priorities()

        if job.finished_program:
            self._commit(job, now)
        else:
            nxt = job.current_op
            assert nxt is not None
            job.op_remaining = nxt.duration

    def _apply_write(self, job: Job, item: str, now: float) -> None:
        value = f"{job.name}@{now:g}"
        if self.protocol.install_policy is InstallPolicy.AT_WRITE:
            version = self.db.install(item, value, job.name, now)
            self.history.record_install(job.name, item, version.seq, now)
        else:
            job.workspace.buffer_write(item, value)

    def _commit(self, job: Job, now: float) -> None:
        if self._before_commit is not None:
            victims = self._before_commit(job)
            if victims:
                self._apply_aborts(victims, job, now)
        if self.protocol.install_policy is InstallPolicy.AT_COMMIT:
            # Deferred writes install as deterministic functions of the
            # job's committed reads (see repro.db.values) so that the
            # value-replay oracle can re-execute the history serially.
            reads = job.workspace.external_reads()
            for item in sorted(job.workspace.pending_writes):
                value = write_digest(job.name, item, reads)
                version = self.db.install(item, value, job.name, now)
                self.history.record_install(job.name, item, version.seq, now)
        self.history.record_commit(job.name, now)
        self.table.release_all(job)
        if self._on_release_all is not None:
            self._on_release_all(job)
        self.waits.forget(job)
        self._recompute_priorities()
        job.state = JobState.COMMITTED
        self._active.pop(job, None)
        job.finish_time = now
        self.trace.sched(now, SchedEventKind.COMMIT, job.name)
        deadline = job.absolute_deadline
        if deadline is not None and now > deadline + _EPS:
            self.trace.sched(now, SchedEventKind.MISS, job.name)
        if self._running is job:
            self._running = None
        self._locks_dirty = True

    # ------------------------------------------------------------------
    # Lock acquisition
    # ------------------------------------------------------------------
    def _needs_lock(self, job: Job) -> Optional[Tuple[str, LockMode]]:
        """The lock the job's current operation still needs, if any."""
        op = job.current_op
        if op is None or job.op_started:
            return None
        mode = op.lock_mode
        if mode is None:
            return None
        assert op.item is not None
        held = self.table.held_modes(job, op.item)
        if held is not None and (mode in held or LockMode.WRITE in held):
            # Already holds the mode — or reads an item it write-locked.
            return None
        return (op.item, mode)

    def _start_op(self, job: Job, now: float) -> None:
        """Perform the current operation's entry effects (read binding)."""
        op = job.current_op
        assert op is not None
        job.op_started = True
        if op.kind is not OpKind.READ:
            return
        item = op.item
        assert item is not None
        if job.workspace.has_write(item):
            # Read of the job's own deferred write: intra-transaction, no
            # dependency on any committed version and no DataRead entry.
            job.workspace.note_read(item, None, now)
            return
        if item in job.data_read:
            return  # re-read under the same lock observes the same version
        version = self.db.read_committed(item)
        job.data_read.add(item)
        job.workspace.note_read(item, version.seq, now, value=version.value)
        self.history.record_read(job.name, item, version.seq, now)

    def _apply_grant(
        self, job: Job, item: str, mode: LockMode, rule: str, now: float,
        outcome: LockOutcome = LockOutcome.GRANTED,
        blockers: Tuple[str, ...] = (),
    ) -> None:
        self.table.grant(job, item, mode)
        if self._on_granted is not None:
            self._on_granted(job, item, mode)
        # A grant can raise the holder's priority floor (IPCP-style
        # ceiling elevation), so priorities are refreshed immediately.
        self._recompute_priorities()
        job.grant_rules.append((now, item, mode, rule))
        job.op_remaining += self.config.lock_overhead
        self.trace.lock(now, job.name, item, mode, outcome, rule, blockers)
        self._start_op(job, now)

    def _apply_block(
        self, job: Job, item: str, mode: LockMode, deny: Deny, now: float
    ) -> None:
        # Repeat denials by the same set of holders dominate contended
        # runs; memoise the sorted-name tuple per blocker identity instead
        # of re-sorting fresh strings on every denial.
        blocker_names = self._blocker_names.get(deny.blockers)
        if blocker_names is None:
            blocker_names = tuple(sorted(b.name for b in deny.blockers))
            self._blocker_names[deny.blockers] = blocker_names
        job.state = JobState.BLOCKED
        self._blocked[job] = None
        job.pending_request = (item, mode)
        # A job woken by a lock release and denied again at the same
        # instant continues its existing blocking interval instead of
        # opening a new one (the wake was bookkeeping, not progress).
        last = job.block_intervals[-1] if job.block_intervals else None
        if (
            last is not None
            and last.end is not None
            and abs(last.end - now) < _EPS
            and last.item == item
            and last.mode == mode
        ):
            last.end = None
            last.blockers = blocker_names
            last.reason = deny.reason
        else:
            job.begin_block(now, item, mode, blocker_names, deny.reason)
            self.trace.lock(
                now, job.name, item, mode, LockOutcome.DENIED, deny.reason,
                blocker_names,
            )
        self.waits.block(job, deny.blockers, inherit=deny.inherit)
        self._recompute_priorities()
        self._check_deadlock(now)

    def _apply_aborts(self, victims: Sequence[Job], by: Job, now: float) -> None:
        if self.protocol.install_policy is not InstallPolicy.AT_COMMIT:
            raise SimulationError(
                f"{self.protocol.name}: aborts require deferred updates "
                "(install_policy=AT_COMMIT); update-in-place aborts would "
                "need undo, which no protocol in this library uses"
            )
        for victim in victims:
            if victim.state is JobState.BLOCKED:
                victim.end_block(now)
            self.table.release_all(victim)
            if self._on_release_all is not None:
                self._on_release_all(victim)
            self.waits.forget(victim)
            self.history.record_abort(victim.name, now)
            if self._running is victim:
                self._running = None
            victim.restart()
            # restart() resets the victim to READY at its base priority
            # before the recompute below snapshots "previous" priorities,
            # so the heap entry must be refreshed here explicitly.
            self._blocked.pop(victim, None)
            self._push_ready(victim)
            self._restart_count += 1
            self.trace.sched(now, SchedEventKind.ABORT, victim.name, by.name)
        self._recompute_priorities()
        self._locks_dirty = True

    def _check_deadlock(self, now: float) -> None:
        cycle = self.waits.find_new_cycle()
        if cycle is None:
            return
        names = tuple(j.name for j in cycle)
        action = self.config.deadlock_action
        if action == "raise":
            raise DeadlockError(names, now)
        if action == "halt":
            self._halted = DeadlockInfo(now, names)
            return
        # abort_lowest: restart the lowest-base-priority job in the cycle.
        victim = min(cycle, key=lambda j: (j.base_priority, -j.seq))
        requester = max(cycle, key=lambda j: j.running_priority)
        self._apply_aborts([victim], requester, now)

    def _recompute_priorities(self) -> None:
        changed = self.waits.recompute_priorities(self._active, self._floor)
        if not changed:
            return
        # Release order, exactly like the walk over ``_active`` this
        # replaced — the order in which priority changes are recorded is
        # part of the trace format.
        changed.sort(key=_release_seq)
        now = self.queue.now
        for job in changed:
            self.trace.priority(now, job.name, job.running_priority)
            if job.state is JobState.READY:
                self._push_ready(job)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _wake_blocked(self, now: float) -> None:
        """Wake every blocked job after lock churn.

        Waking does NOT grant anything: the woken job re-issues its lock
        request when it is next scheduled (`_pick_runner`).  Granting at
        wake time — i.e. letting a transaction that does not hold the CPU
        acquire locks — is subtly wrong for the ceiling protocols: a
        lower-priority waiter could take a high-ceiling lock at the very
        instant a higher-priority transaction resumes, blocking it a
        second time and violating the single-blocking theorem.  (Our
        property-based tests caught exactly that before this design.)

        A woken job that is denied again at the same instant re-blocks
        with its blocking interval continued, so blocking-time accounting
        is unaffected by the wake/re-deny round trip.
        """
        if not self._blocked:
            return
        woken = list(self._blocked)
        self._blocked.clear()
        for job in woken:
            job.end_block(now)
            job.state = JobState.READY
            job.pending_request = None
            self.waits.unblock(job)
            self._push_ready(job)
        self._recompute_priorities()

    def _pick_runner(self, now: float) -> Optional[Job]:
        """Choose the next job for the CPU, acquiring locks on the way.

        The highest-priority ready job is examined; if its next operation
        needs a lock, the request happens *now* (this is the instant the
        paper's examples say "T arrives and requests to lock x").  A denial
        blocks the job (with priority inheritance) and the next candidate
        is examined.

        Whenever locks were released inside this loop (deadlock-resolution
        aborts, early releases), blocked jobs are re-evaluated *before*
        picking the next runner — otherwise a restarted victim could
        re-acquire the contested lock ahead of the blocked winner and
        recreate the deadlock forever.
        """
        while True:
            while self._locks_dirty and self._halted is None:
                self._locks_dirty = False
                self._wake_blocked(now)
            if self._halted is not None:
                return None
            # Highest-priority candidate = best live heap entry vs. the
            # (single possible) running job; dispatch keys are unique, so
            # this agrees with the old min() over a filtered job list.
            best = self._peek_ready()
            running = self._running
            if (
                running is not None
                and running.state is JobState.RUNNING
                and (best is None or running.dkey < best.dkey)
            ):
                best = running
            if best is None:
                return None
            need = self._needs_lock(best)
            if need is None:
                if not best.op_started:
                    self._start_op(best, now)
                return best
            item, mode = need
            decision = self._decide(best, item, mode)
            if isinstance(decision, Grant):
                self._apply_grant(best, item, mode, decision.rule, now)
                return best
            if isinstance(decision, AbortAndGrant):
                self._apply_aborts(decision.victims, best, now)
                self._apply_grant(
                    best, item, mode, decision.reason, now,
                    outcome=LockOutcome.ABORT_GRANTED,
                    blockers=tuple(v.name for v in decision.victims),
                )
                return best
            assert isinstance(decision, Deny)
            if best.state is JobState.RUNNING:
                self._running = None
            self._apply_block(best, item, mode, decision, now)
            if self._halted is not None:
                return None

    def _dispatch(self, now: float) -> None:
        chosen = self._pick_runner(now)
        if self._halted is not None:
            return
        previous = self._running
        if chosen is previous:
            if chosen is not None:
                self._schedule_completion(chosen, now)
            return
        if previous is not None and previous.state is JobState.RUNNING:
            previous.state = JobState.READY
            self._push_ready(previous)
            previous.completion_token += 1
            previous.scheduled_completion = None
            previous.preemptions += 1
            self.trace.sched(
                now, SchedEventKind.PREEMPT, previous.name,
                chosen.name if chosen else None,
            )
        switched_between_jobs = previous is not None and chosen is not None
        self._running = chosen
        self._run_start = now
        if chosen is not None:
            if switched_between_jobs and self.config.context_switch_overhead > 0:
                chosen.op_remaining += self.config.context_switch_overhead
                chosen.scheduled_completion = None  # force a reschedule
            chosen.state = JobState.RUNNING
            self.trace.sched(now, SchedEventKind.DISPATCH, chosen.name)
            self._schedule_completion(chosen, now)

    def _schedule_completion(self, job: Job, now: float) -> None:
        """(Re)schedule the running job's operation-completion event.

        Idempotent: when a valid completion event is already pending at the
        right time, nothing is scheduled (otherwise popping a stale event
        would invalidate the valid one, ping-ponging forever).
        """
        target = now + job.op_remaining
        if (
            job.scheduled_completion is not None
            and abs(job.scheduled_completion - target) < _EPS
        ):
            return
        job.completion_token += 1
        job.scheduled_completion = target
        self.queue.push(target, "op_done", (job, job.completion_token))
