"""The asyncio lock-manager runtime: sessions, grant queues, commit.

This is the transport-agnostic heart of the service.  One
:class:`LockManager` owns exactly the objects a :class:`Simulator` owns —
a :class:`~repro.engine.lock_table.LockTable`, a
:class:`~repro.engine.inheritance.WaitForGraph`, a
:class:`~repro.db.database.Database`, a committed
:class:`~repro.db.history.History`, a
:class:`~repro.trace.recorder.TraceRecorder` — and drives them from client
requests arriving on the event loop instead of from a virtual-time
calendar.  Admission decisions are made by the *same* protocol objects the
simulator uses (``protocol.decide``), so the service's grant/deny
behaviour is the simulator's by construction; the differential battery in
``tests/test_service_differential.py`` pins that claim.

Concurrency model (docs/SERVICE.md has the full write-up):

* every state mutation happens synchronously between ``await`` points on
  one event loop, so decide→grant pairs are atomic and the lock table is
  never observed mid-update;
* a denied request parks in the **grant queue** — one
  :class:`~repro.service.park.Park` per waiting session, whatever it
  waits for — and its blockers inherit the requester's priority through
  the shared wait-for graph, exactly as in the engine;
* every lock release re-services the grant queue in (running priority,
  earliest deadline, FIFO) order, re-evaluating against the protocol's
  locking conditions exactly the parks the release can affect (an
  item→parks index plus each denial's blame set select them; every
  other denial is invariant under the churn); "wake" and "grant" are one
  atomic step here because there is no CPU to schedule, unlike the
  simulator's wake-then-retry dance;
* commits install deferred writes from the session workspace into the
  shared database under a monotonic service clock, so the recorded
  history replays through :func:`repro.db.serializability.check_serializable`
  unchanged.

Deadlines are *firm*: an expired session is aborted at its next operation
boundary, or mid-wait via the grant-queue timeout, mirroring the
simulator's ``on_miss="abort"`` policy.

Serialization-order enforcement (the concurrency delta vs the simulator):

PCP-DA's LC3/LC4 let a reader pass an item's *write* lock — the paper's
"dynamic adjustment": the reader observes the committed version and is
therefore serialized *before* the still-running writer.  On a single CPU
the priority scheduler enforces that order for free (the higher-priority
reader runs to completion before the writer regains the CPU); with truly
concurrent clients nothing does, and the writer could commit mid-flight
and leak its installs to the reader — a cycle the serializability oracle
duly reports.  The manager therefore makes the adjusted order explicit:

* a granted read on an item with live write holders records a
  ``reader ≺ writer`` constraint for each holder (the constraint graph
  stays acyclic because the order guard below refuses reads that would
  close a cycle);
* **commit gate** — a session with live ``≺``-predecessors parks its
  commit until they finish, so its installs can never be observed by a
  transaction serialized before it;
* **order guard** — a read of an item inside a live predecessor's write
  set is held back (this is the Table-1 footnote condition
  ``DataRead ∩ WriteSet = ∅`` carried forward in time: the footnote
  checks past reads at grant, the guard prevents future ones).

Gate, guard and fence waits are service-made park kinds: they join the
shared wait-for graph (so blockers inherit priority and cycles are
visible), and a cycle that involves one is resolved by aborting its
lowest-priority member —
the one place the live service may abort under a protocol the paper
proves abort-free, and the honest price of dropping the single-CPU
assumption.  Pure lock cycles under a ``can_deadlock=False`` protocol
remain :class:`InvariantViolation`s, exactly as in the simulator.
"""

from __future__ import annotations

import asyncio
import enum
import heapq
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.db.database import Database
from repro.db.history import History
from repro.engine.inheritance import WaitForGraph
from repro.engine.interfaces import (
    AbortAndGrant,
    ConcurrencyControlProtocol,
    Deny,
    Grant,
    InstallPolicy,
)
from repro.engine.job import Job
from repro.engine.kernel import build_kernel
from repro.engine.lock_table import LockTable
from repro.engine.simulator import SimulationResult
from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    InvariantViolation,
    ServiceError,
    SessionStateError,
    SpecificationError,
    TransactionAborted,
)
from repro.model.spec import LockMode, TaskSet
from repro.model.validation import validate_taskset
from repro.protocols import make_protocol
from repro.service.constraints import ConstraintGraph
from repro.service.park import COMMIT_ITEM, Park, ParkKind, ServiceDeny
from repro.service.stats import ServiceStats
from repro.trace.recorder import (
    LockEvent,
    LockOutcome,
    SchedEventKind,
    TraceRecorder,
)


def catalog_document(catalog: TaskSet) -> List[Dict[str, Any]]:
    """JSON-friendly description of a catalog's transaction types.

    Shared by :meth:`LockManager.catalog_document` and the remote shard
    proxy, which answers the same query from its local catalog copy
    without a round-trip (the catalog is static and identical on every
    host by construction).
    """
    return [
        {
            "name": spec.name,
            "priority": spec.priority,
            "operations": [
                {
                    "kind": op.kind.value,
                    "item": op.item,
                    "duration": op.duration,
                }
                for op in spec.operations
            ],
            "reads": sorted(spec.read_set),
            "writes": sorted(spec.write_set),
        }
        for spec in catalog
    ]


class SessionState(enum.Enum):
    """Lifecycle of a service session (one transaction instance)."""

    ACTIVE = "active"        # may issue operations
    WAITING = "waiting"      # parked in the grant queue
    COMMITTED = "committed"  # terminal: writes installed
    ABORTED = "aborted"      # terminal: workspace discarded

    @property
    def live(self) -> bool:
        return self in (SessionState.ACTIVE, SessionState.WAITING)


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one :class:`LockManager`.

    Attributes:
        max_sessions: admission-control cap on concurrently live sessions;
            ``begin`` raises :class:`AdmissionError` beyond it (``None`` =
            unbounded).
        default_deadline_s: relative deadline applied to sessions that do
            not specify one (``None`` = no deadline).
        deadlock_action: ``"abort_lowest"`` (default) aborts the
            lowest-base-priority session in a detected wait cycle —
            relevant only for protocols declaring ``can_deadlock``;
            ``"raise"`` surfaces the cycle as an error to the requester.
            For deadlock-free protocols (PCP-DA and family) a cycle is
            *always* reported as an :class:`InvariantViolation`: the paper
            proves it cannot happen, so it must not be silently resolved.
        record_sysceil: sample the protocol's global system ceiling into
            the trace after every lock churn (cheap with the incremental
            ceiling index; disable for maximum throughput).
        honor_early_release: apply the protocol's ``after_operation``
            early-unlock hook (CCP).  Off by default: releasing read locks
            before commit is only safe under the single-CPU scheduling
            the simulator provides, so the service holds every lock to
            commit unless explicitly asked to reproduce simulator
            behaviour.
        kernel: serve admissions from the array kernel
            (:mod:`repro.engine.kernel`) when the protocol compiles to a
            decision table; the object path remains the reference.  The
            grant/deny behaviour is identical by construction (the
            simulator's golden corpus and the service differential battery
            both pin it), so this is purely a throughput switch.
    """

    max_sessions: Optional[int] = None
    default_deadline_s: Optional[float] = None
    deadlock_action: str = "abort_lowest"
    record_sysceil: bool = True
    honor_early_release: bool = False
    kernel: bool = True

    def __post_init__(self) -> None:
        if self.deadlock_action not in ("abort_lowest", "raise"):
            raise SpecificationError(
                f"unknown deadlock_action {self.deadlock_action!r}"
            )
        if self.max_sessions is not None and self.max_sessions < 1:
            raise SpecificationError("max_sessions must be >= 1")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise SpecificationError("default_deadline_s must be positive")


class Session:
    """One live transaction: a :class:`Job` plus service bookkeeping.

    The embedded job is a *real* engine job — the protocols read its
    ``running_priority`` / ``data_read`` / ``spec`` exactly as they would
    inside the simulator, and its block intervals accumulate the same
    blocking statistics the paper's figures are built from.
    """

    __slots__ = ("id", "job", "state", "deadline", "opened_at", "op_count",
                 "abort_reason", "committing")

    def __init__(self, session_id: int, job: Job, opened_at: float,
                 deadline: Optional[float]):
        self.id = session_id
        self.job = job
        self.state = SessionState.ACTIVE
        #: Absolute deadline on the service clock, or None.
        self.deadline = deadline
        self.opened_at = opened_at
        #: Completed data operations (drives the CCP early-unlock hook).
        self.op_count = 0
        self.abort_reason = ""
        #: Commit fence flag (see :meth:`LockManager.prepare_commit`).
        self.committing = False

    @property
    def name(self) -> str:
        """The underlying job's instance name (``"T2#7"``)."""
        return self.job.name

    @property
    def priority(self) -> int:
        """The job's base priority (wire ``begin`` reports this; the
        sharded coordinator exposes the same attribute on its sessions)."""
        return self.job.base_priority


class LockManager:
    """Serve lock requests from concurrent clients under one protocol.

    Args:
        catalog: the registered transaction types (a :class:`TaskSet` with
            total-order priorities).  Ceilings are static information, so
            the protocol family needs the catalog up front — a session is
            an *instance* of a catalog transaction, exactly like a job is
            an instance of a spec in the simulator.
        protocol: a protocol name (``"pcp-da"``) or a pre-built instance.
        config: see :class:`ServiceConfig`.
    """

    def __init__(
        self,
        catalog: TaskSet,
        protocol: Union[str, ConcurrencyControlProtocol] = "pcp-da",
        config: Optional[ServiceConfig] = None,
    ) -> None:
        validate_taskset(catalog, require_priorities=True)
        if COMMIT_ITEM in catalog.items:
            raise SpecificationError(
                f"item name {COMMIT_ITEM!r} is reserved for the commit gate"
            )
        self.catalog = catalog
        self.config = config or ServiceConfig()
        if isinstance(protocol, str):
            protocol = make_protocol(protocol)
        self.protocol = protocol
        self.table = LockTable()
        self.waits = WaitForGraph()
        self.db = Database(sorted(catalog.items))
        self.history = History()
        self.trace = TraceRecorder()
        #: Callbacks fired synchronously on every recorded lock decision
        #: (grants, denials, abort-grants) with the :class:`LockEvent`.
        #: The parity harness (:mod:`repro.verify.parity`) uses this to
        #: capture a decision sequence in global order — including across
        #: the shards of a coordinator, where per-shard traces interleave.
        self.decision_listeners: List[Callable[[LockEvent], None]] = []
        #: Callbacks fired synchronously on lock churn, for embedders that
        #: maintain derived state (the shard coordinator).  Signature is
        #: ``listener(kind, job, other)`` with kinds:
        #:
        #: * ``"constraint"`` — an LC3/LC4 read recorded ``job ≺ other``;
        #: * ``"finish"`` / ``"abort"`` — ``job`` reached a terminal state
        #:   (``"abort"`` fires after the teardown is complete);
        #: * ``"wait"`` — ``job`` parked on (or re-pointed) a wait edge;
        #: * ``"unwait"`` — ``job`` left the wait-for graph without
        #:   terminating (grant, gate exit).  In-process consumers can
        #:   ignore it; remote wait-graph mirrors need it.
        self.churn_listeners: List[
            Callable[[str, Job, Optional[Job]], None]
        ] = []
        self.stats = ServiceStats()
        self.protocol.bind(catalog, self.table)
        self.protocol.bind_runtime(self.waits)
        #: Array kernel serving decide/system_ceiling when the protocol
        #: compiles to a table; ``None`` keeps the object path.
        self.kernel = (
            build_kernel(self.protocol, self.table, self.waits)
            if self.config.kernel
            else None
        )
        if self.kernel is not None:
            self._decide = self.kernel.decide
            self._sysceil = self.kernel.system_ceiling
        else:
            self._decide = self.protocol.decide
            self._sysceil = self.protocol.system_ceiling
        # Skip priority_floor calls for protocols using the inert default
        # (recompute_priorities then resets to base without N floor calls).
        self._floor = (
            None
            if type(self.protocol).priority_floor
            is ConcurrencyControlProtocol.priority_floor
            else self.protocol.priority_floor
        )

        self._sessions: Dict[int, Session] = {}
        self._by_job: Dict[Job, Session] = {}
        #: Live sessions by job, oldest first (the job keys are what the
        #: wait graph's inheritance pass tests membership against).
        self._live: Dict[Job, Session] = {}
        #: The registry: every waiting session's :class:`Park`, whatever
        #: it waits for (lock, order guard, commit fence, commit gate).
        self.parks: Dict[Session, Park] = {}
        #: item -> sessions parked on it, oldest park first: the partial
        #: re-decide index, and under :data:`COMMIT_ITEM` the gated
        #: commits every terminal wakes.
        self._item_parks: Dict[str, Dict[Session, None]] = {}
        #: Lock churn since the last grant-queue drain: items whose locks
        #: were released, the jobs waiting directly on a releasing job, and
        #: the jobs whose running priority moved.  Terminal transitions and
        #: early unlocks feed these; the drain re-decides only the waiters
        #: they can affect.
        self._churn_items: Set[str] = set()
        self._churn_waiters: Set[Job] = set()
        self._churn_priorities: Set[Job] = set()
        #: Serialization-order constraints ``reader ≺ writer`` among live
        #: jobs (see module docstring).  Public: the shard coordinator
        #: reads a shard's closure through it.
        self.constraints = ConstraintGraph()
        #: Commit-fenced sessions (see :meth:`prepare_commit`): while a
        #: job is in here, reads may not pass its write locks.
        self._committing: Dict[Job, Session] = {}
        self._next_session_id = 0
        self._instances: Dict[str, int] = {}
        self._t0 = time.monotonic()
        self._closed = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the manager started (the service clock)."""
        return time.monotonic() - self._t0

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    async def begin(
        self,
        transaction: str,
        *,
        deadline_s: Optional[float] = None,
        instance: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> Session:
        """Open a session executing one instance of ``transaction``.

        ``instance`` pins the instance number instead of drawing from the
        manager's own counter — the shard coordinator uses this so every
        leg of one global transaction carries the same name on every
        shard (the counter is bumped past the pin, so mixed use stays
        collision-free).  ``seq`` pins the job's tie-break sequence the
        same way: the coordinator passes the global session id, so
        grant-queue FIFO and victim choice follow the *global* begin
        order rather than the lazy leg-creation order.

        Raises:
            AdmissionError: the ``max_sessions`` backpressure cap is hit.
            SpecificationError: unknown transaction name.
            ServiceError: the manager is shut down.
        """
        self._ensure_open()
        spec = self.catalog[transaction]
        limit = self.config.max_sessions
        if limit is not None and len(self._live) >= limit:
            self.stats.sessions_rejected += 1
            raise AdmissionError(
                f"session limit reached ({limit} live sessions); retry later"
            )
        now = self.now()
        if instance is None:
            instance = self._instances.get(transaction, 0)
            self._instances[transaction] = instance + 1
        else:
            self._instances[transaction] = max(
                self._instances.get(transaction, 0), instance + 1
            )
        job = Job(spec, instance, now)
        if seq is not None:
            job.seq = seq
        session = Session(self._next_session_id, job, now, None)
        self._next_session_id += 1
        relative = (
            deadline_s if deadline_s is not None
            else self.config.default_deadline_s
        )
        if relative is not None:
            session.deadline = now + relative
        self._sessions[session.id] = session
        self._by_job[job] = session
        self._live[job] = session
        self.stats.sessions_started += 1
        self.trace.sched(now, SchedEventKind.ARRIVAL, job.name)
        return session

    def add_decision_listener(
        self, listener: Callable[[LockEvent], None]
    ) -> None:
        """Subscribe ``listener`` to every recorded lock decision."""
        self.decision_listeners.append(listener)

    def session(self, session_id: int) -> Session:
        """Look up a session by id (for the wire layer)."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionStateError(f"unknown session {session_id}") from None

    async def read(self, session: Session, item: str) -> Any:
        """Read ``item``, acquiring the read lock first if needed.

        Returns the observed value: the session's own buffered write when
        one exists, otherwise the committed version bound on first read
        (re-reads return the same version — locks are held to commit).
        """
        self._pre_op(session, item, LockMode.READ)
        job = session.job
        if job.workspace.has_write(item):
            # Own deferred write: intra-transaction, no lock, no history.
            return job.workspace.written_value(item)
        if not (
            self.table.holds(job, item, LockMode.READ)
            or self.table.holds(job, item, LockMode.WRITE)
        ):
            await self._acquire(session, item, LockMode.READ)
        record = job.workspace.read_record(item)
        if record is not None:
            return record.value  # re-read under the held lock
        now = self.now()
        version = self.db.read_committed(item)
        job.data_read.add(item)
        job.workspace.note_read(item, version.seq, now, value=version.value)
        self.history.record_read(job.name, item, version.seq, now)
        self._after_data_op(session)
        return version.value

    async def write(self, session: Session, item: str, value: Any) -> None:
        """Buffer a deferred write of ``value`` to ``item``.

        The write-lock request goes through the protocol (LC1 for PCP-DA);
        the value stays in the session workspace until commit.
        """
        self._pre_op(session, item, LockMode.WRITE)
        job = session.job
        if not self.table.holds(job, item, LockMode.WRITE):
            await self._acquire(session, item, LockMode.WRITE)
        job.workspace.buffer_write(item, value)
        self._after_data_op(session)

    async def commit(self, session: Session) -> Dict[str, Any]:
        """Commit: install buffered writes atomically, release all locks.

        Returns a summary dict (installed items, latency, blocking time).
        """
        self._pre_op(session, None, None)
        job = session.job
        # Commit gate: transactions serialized before this one (they read
        # past its write locks) must finish first, or they could observe
        # this commit's installs and close a serialization cycle.
        while True:
            predecessors = tuple(sorted(
                self.constraints.direct_preds(job), key=lambda j: j.seq
            ))
            if not predecessors:
                break
            # Any predecessor's end wakes the park; the loop re-evaluates
            # the remaining set.
            await self._wait(session, self._park(
                session, COMMIT_ITEM, LockMode.WRITE,
                ServiceDeny(
                    predecessors,
                    "commit gate: transactions serialized before this one "
                    "are still running",
                    kind=ParkKind.COMMIT_GATE,
                ),
                self.now(),
            ))
        victims = self.protocol.before_commit(job)
        if victims:
            # Validation-based protocols (OCC-BC): broadcast-abort the
            # readers this commit invalidates.  Unlike the simulator there
            # is no restart — the client owning the session retries.
            for victim in tuple(victims):
                self._abort_session(
                    self._by_job[victim], "validation",
                    exc=TransactionAborted(
                        f"{victim.name} aborted by {job.name}'s commit "
                        "(validation)"
                    ),
                )
        now = self.now()
        installed = []
        if self.protocol.install_policy is InstallPolicy.AT_COMMIT:
            for item in sorted(job.workspace.pending_writes):
                value = job.workspace.written_value(item)
                version = self.db.install(item, value, job.name, now)
                self.history.record_install(job.name, item, version.seq, now)
                installed.append(item)
        self.history.record_commit(job.name, now)
        self._finish(session, SessionState.COMMITTED)
        job.finish_time = now
        self.trace.sched(now, SchedEventKind.COMMIT, job.name)
        latency = now - session.opened_at
        blocking = job.total_blocking_time()
        self.stats.record_commit(job.base_priority, latency)
        self._service_grant_queue()
        return {
            "installed": installed,
            "latency_s": latency,
            "blocking_s": blocking,
        }

    def prepare_commit(self, session: Session) -> Tuple[str, ...]:
        """Fence the session for a coordinator-driven cross-shard install.

        Used by the multi-process deployment, where installing one
        global commit leg per shard takes a wire round-trip each: the
        coordinator fences every leg first, so no reader can slip past a
        write lock (recording a ``reader ≺ committer`` constraint) after
        the coordinator's last merged-gate check.  Reads denied by the
        fence park in the grant queue and are re-decided when the fence
        drops — at the leg's commit (they then read the installed
        version) or at :meth:`unprepare_commit` (the coordinator backed
        off to wait at its gate).

        Returns the names of the session's current live local
        ``≺``-predecessors, so the coordinator can re-check its merged
        gate once every leg is fenced.  Sync on purpose: the in-process
        coordinator calls it inside its atomic commit section.
        """
        if not session.state.live:
            raise TransactionAborted(
                f"{session.name}: {session.abort_reason or 'not live'}"
            )
        session.committing = True
        self._committing[session.job] = session
        return tuple(sorted(
            p.name for p in self.constraints.direct_preds(session.job)
        ))

    def unprepare_commit(self, session: Session) -> None:
        """Drop a commit fence without committing (coordinator back-off).

        Re-services the grant queue so reads the fence parked are
        re-decided — they pass the write locks again (LC3/LC4) exactly
        as if the fence had never existed.
        """
        if self._committing.pop(session.job, None) is None:
            return
        session.committing = False
        # Fence denials blame the fenced job; dropping the fence is churn
        # on that job, which re-selects exactly those waiters.
        self._note_release_churn(session.job, ())
        self._service_grant_queue()

    async def abort(self, session: Session, reason: str = "client") -> None:
        """Abort the session: discard its workspace, release its locks."""
        if not session.state.live:
            raise SessionStateError(
                f"{session.name}: cannot abort a {session.state.value} session"
            )
        if session.state is SessionState.WAITING:
            raise SessionStateError(
                f"{session.name}: another operation is waiting for a lock"
            )
        self._abort_session(session, reason, forced=False)
        self._service_grant_queue()

    async def shutdown(self) -> None:
        """Abort every live session and refuse further requests."""
        if self._closed:
            return
        self._closed = True
        for session in list(self._live.values()):
            self._abort_session(
                session, "shutdown",
                exc=TransactionAborted("service shutting down"),
            )
        self._service_grant_queue()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_sessions(self) -> Tuple[Session, ...]:
        """Currently live (active or waiting) sessions, oldest first."""
        return tuple(self._live.values())

    def system_ceiling(self) -> int:
        """The current global system ceiling (kernel-backed when active)."""
        return self._sysceil(None)

    def stats_document(self) -> Dict[str, Any]:
        """The ``stats`` command payload: counters + live-state gauges."""
        doc = self.stats.to_dict()
        doc["live_sessions"] = len(self._live)
        doc["waiting_sessions"] = len(self.parks)
        doc["protocol"] = self.protocol.name
        doc["uptime_s"] = self.now()
        doc["system_ceiling"] = self.system_ceiling()
        doc["decision_path"] = "kernel" if self.kernel is not None else "object"
        return doc

    def history_events(self) -> List[Dict[str, Any]]:
        """The observable history as JSON-friendly rows (oracle replay)."""
        return [
            {
                "kind": event.kind.value,
                "job": event.job,
                "item": event.item,
                "version_seq": event.version_seq,
                "time": event.time,
            }
            for event in self.history
        ]

    def catalog_document(self) -> List[Dict[str, Any]]:
        """The registered transaction types (the ``catalog`` command)."""
        return catalog_document(self.catalog)

    def snapshot_result(self) -> SimulationResult:
        """Package the run so far as a :class:`SimulationResult`.

        This is what lets the live path reuse the simulator's oracles
        verbatim: ``check_serializable()`` replays the history, and the
        trace metrics/exports consume the recorder exactly as they would a
        simulated run.
        """
        return SimulationResult(
            taskset=self.catalog,
            protocol_name=self.protocol.name,
            jobs=tuple(s.job for s in self._sessions.values()),
            history=self.history,
            trace=self.trace,
            database=self.db,
            end_time=self.now(),
        )

    # ------------------------------------------------------------------
    # Operation plumbing
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("lock manager is shut down")

    def _trace_lock(
        self,
        time: float,
        job_name: str,
        item: str,
        mode: LockMode,
        outcome: LockOutcome,
        rule: str,
        blockers: Tuple[str, ...] = (),
    ) -> None:
        """Record one lock decision and fan it out to the listeners."""
        event = LockEvent(time, job_name, item, mode, outcome, rule, blockers)
        self.trace.lock_events.append(event)
        for listener in self.decision_listeners:
            listener(event)

    def _notify_churn(
        self, kind: str, job: Job, other: Optional[Job] = None
    ) -> None:
        """Fan one churn event out to the registered listeners."""
        for listener in self.churn_listeners:
            listener(kind, job, other)

    def _note_release_churn(self, job: Job, items) -> None:
        """Record released locks for the next grant-queue drain.

        Must run while ``job``'s wait edges still stand (before
        ``waits.forget``): the jobs waiting directly on it are exactly the
        parked requests whose latest denial blames it.
        """
        self._churn_waiters.update(self.waits.waiters_on(job))
        self._churn_items.update(items)

    def _pre_op(
        self,
        session: Session,
        item: Optional[str],
        mode: Optional[LockMode],
    ) -> None:
        """Shared entry checks: session state, deadline, access sets."""
        self._ensure_open()
        if session.state is SessionState.WAITING:
            raise SessionStateError(
                f"{session.name}: a previous operation is still waiting "
                "for a lock (one in-flight operation per session)"
            )
        if not session.state.live:
            raise SessionStateError(
                f"{session.name}: session already {session.state.value}"
            )
        if session.deadline is not None and self.now() > session.deadline:
            self.stats.deadline_aborts += 1
            self._abort_session(session, "deadline", forced=True)
            self._service_grant_queue()
            raise DeadlineExceeded(
                f"{session.name}: deadline passed before the operation"
            )
        if item is None or mode is None:
            return
        spec = session.job.spec
        allowed = spec.access_set if mode is LockMode.READ else spec.write_set
        if item not in allowed:
            raise SessionStateError(
                f"{session.name}: {mode.value} of {item!r} is outside the "
                f"declared {'access' if mode is LockMode.READ else 'write'} "
                f"set of {spec.name} (ceilings are static — register the "
                "item in the catalog)"
            )

    def _after_data_op(self, session: Session) -> None:
        """Post-operation hook: CCP-style early unlocks."""
        op_index = session.op_count
        session.op_count += 1
        if not self.config.honor_early_release:
            return
        released: List[str] = []
        for item, mode in self.protocol.after_operation(session.job, op_index):
            # A free-form client may diverge from the declared program; an
            # early-unlock suggestion for a lock not actually held is
            # skipped rather than treated as corruption.
            if self.table.holds(session.job, item, mode):
                self.table.release(session.job, item, mode)
                released.append(item)
        if released:
            self._note_release_churn(session.job, released)
            self._recompute_priorities()
            self._service_grant_queue()

    # ------------------------------------------------------------------
    # Lock acquisition and the grant queue
    # ------------------------------------------------------------------
    async def _acquire(self, session: Session, item: str, mode: LockMode) -> str:
        """Acquire ``mode`` on ``item``, parking in the grant queue on deny.

        Returns the grant rule string.  Everything before the ``await`` is
        synchronous, so decide→grant is atomic with respect to other
        clients.
        """
        job = session.job
        decision = self._service_decide(job, item, mode)
        now = self.now()
        if isinstance(decision, Grant):
            self._apply_grant(session, item, mode, decision.rule, now)
            return decision.rule
        if isinstance(decision, AbortAndGrant):
            self._resolve_abort_grant(session, item, mode, decision, now)
            return decision.reason

        assert isinstance(decision, Deny)
        self.stats.record_denial(job.base_priority)
        self._trace_lock(
            now, job.name, item, mode, LockOutcome.DENIED, decision.reason,
            tuple(sorted(b.name for b in decision.blockers)),
        )
        return await self._wait(
            session, self._park(session, item, mode, decision, now)
        )

    def _park(
        self, session: Session, item: str, mode: LockMode, deny: Deny,
        now: float,
    ) -> Park:
        """Register ``session`` as waiting on ``deny.blockers``: the one
        way into the registry, whatever the wait is for.

        The wait joins the shared wait-for graph, so the blockers inherit
        the requester's priority and a cycle through it is visible to
        :meth:`_check_deadlock` — which may resolve the returned park's
        future (granted, or aborted as the victim) before anyone awaits
        it, or reject the request, in which case the park is gone again
        when the exception propagates.
        """
        job = session.job
        park = Park(
            session, ParkKind.of(deny), deny.blockers,
            asyncio.get_running_loop().create_future(), now,
            item, mode, deny.reason, job.running_priority,
        )
        self.parks[session] = park
        self._item_parks.setdefault(item, {})[session] = None
        session.state = SessionState.WAITING
        job.begin_block(
            now, item, mode, tuple(sorted(b.name for b in deny.blockers)),
            deny.reason,
        )
        self.waits.block(job, deny.blockers, inherit=deny.inherit)
        self._notify_churn("wait", job)
        self._recompute_priorities()
        try:
            self._check_deadlock()
        except (InvariantViolation, ServiceError) as exc:
            self._unpark(session)
            if isinstance(exc, InvariantViolation):
                # A cycle the paper rules out.  Left live, the requester
                # keeps its locks and every other client stalls on them.
                self._abort_session(session, "invariant violation")
                self._service_grant_queue()
            else:
                # deadlock_action="raise": request rejected, session live.
                self._recompute_priorities()
            raise
        self._sample_sysceil()
        return park

    async def _wait(self, session: Session, park: Park) -> Any:
        """Await ``park``'s future under the session's firm deadline;
        returns what the future was resolved with (the grant rule)."""
        timeout = None
        if session.deadline is not None:
            timeout = max(0.0, session.deadline - self.now())
        try:
            result = await asyncio.wait_for(park.future, timeout)
        except asyncio.TimeoutError:
            # Deadline expired mid-wait: leave the queue and abort firmly
            # (also when the grant landed just before the timeout —
            # deadline semantics win).
            self._unpark(session)
            if session.state.live:
                self.stats.deadline_aborts += 1
                self._abort_session(session, "deadline", forced=True)
                self._service_grant_queue()
            where = (
                "at the commit gate" if park.kind is ParkKind.COMMIT_GATE
                else f"waiting for {park.mode.value}({park.item})"
            )
            raise DeadlineExceeded(
                f"{session.name}: deadline passed {where}"
            ) from None
        except asyncio.CancelledError:
            # The client's task was cancelled (connection dropped) while
            # parked: tear the session down so its park and wait edges do
            # not outlive the client.
            self._unpark(session)
            if session.state.live:
                self._abort_session(session, "cancelled", forced=True)
                self._service_grant_queue()
            raise
        if self._unpark(session) is not None:
            # Woken, not granted (a commit gate): whoever grants a lock
            # unparks the session itself, a wake leaves that to the waiter.
            self._recompute_priorities()
        return result

    def _order_guard(
        self, job: Job, item: str, mode: LockMode
    ) -> Optional[Deny]:
        """The service-level guard decision, or ``None`` to pass through.

        A read of an item inside a live transitive ``≺``-predecessor's
        write set must wait: granting it would let the requester observe
        state that a transaction serialized *before* it is about to
        overwrite (or would close a cycle in the constraint graph).  This
        is the Table-1 footnote condition applied forward in time.
        """
        if mode is not LockMode.READ or not self.constraints:
            return None
        guard = tuple(sorted(
            (p for p in self.constraints.preds(job)
             if item in p.spec.write_set),
            key=lambda j: j.seq,
        ))
        if guard:
            return ServiceDeny(
                guard,
                "order guard: item is writable by a transaction "
                "serialized before the requester",
                kind=ParkKind.ORDER_GUARD,
            )
        return None

    def _commit_fence(
        self, job: Job, item: str, mode: LockMode
    ) -> Optional[Deny]:
        """Deny reads past a fenced (committing) session's write locks.

        Between :meth:`prepare_commit` and the commit (or
        :meth:`unprepare_commit`), an LC3/LC4 read passing one of the
        fenced session's write locks would record a new ``reader ≺
        committer`` constraint that the coordinator's merged gate check
        can no longer see in time — so the read parks until the install
        completes (it then reads the new version, serialized after) or
        the fence is dropped (it then passes as usual).
        """
        if not self._committing or mode is not LockMode.READ:
            return None
        holders = tuple(sorted(
            (w for w in self.table.writers_of(item)
             if w is not job and w in self._committing),
            key=lambda j: j.seq,
        ))
        if holders:
            return ServiceDeny(
                holders,
                "commit fence: a write holder is installing across shards",
                kind=ParkKind.COMMIT_FENCE,
            )
        return None

    def _service_predecide(
        self, job: Job, item: str, mode: LockMode
    ) -> Optional[Deny]:
        """The service-level pre-decision (fence, then order guard), or
        ``None`` to fall through to the protocol."""
        fence = self._commit_fence(job, item, mode)
        if fence is not None:
            return fence
        return self._order_guard(job, item, mode)

    def _service_decide(
        self, job: Job, item: str, mode: LockMode
    ) -> Union[Grant, AbortAndGrant, Deny]:
        """The protocol's decision (kernel or object path), tightened by
        the commit fence and the order guard."""
        deny = self._service_predecide(job, item, mode)
        if deny is not None:
            return deny
        return self._decide(job, item, mode)

    def _apply_grant(
        self,
        session: Session,
        item: str,
        mode: LockMode,
        rule: str,
        now: float,
        outcome: LockOutcome = LockOutcome.GRANTED,
        blockers: Tuple[str, ...] = (),
    ) -> None:
        job = session.job
        self.table.grant(job, item, mode)
        self.protocol.on_granted(job, item, mode)
        if mode is LockMode.READ:
            # Reading past a write lock (LC3/LC4) serializes this session
            # before every current write holder — record the adjusted
            # order so commit gating can enforce it (see module docstring).
            for writer in self.table.writers_of(item) - {job}:
                if self.constraints.add(job, writer):
                    self._notify_churn("constraint", job, writer)
        self._recompute_priorities()
        job.grant_rules.append((now, item, mode, rule))
        self.stats.record_grant(job.base_priority)
        self._trace_lock(now, job.name, item, mode, outcome, rule, blockers)
        self._sample_sysceil()

    def _resolve_abort_grant(
        self,
        session: Session,
        item: str,
        mode: LockMode,
        decision: AbortAndGrant,
        now: float,
    ) -> None:
        """2PL-HP-style decision: abort the victims, then take the lock."""
        victim_names = tuple(v.name for v in decision.victims)
        for victim in decision.victims:
            self._abort_session(
                self._by_job[victim], "victim",
                exc=TransactionAborted(
                    f"{victim.name} aborted by higher-priority "
                    f"{session.name} ({decision.reason or 'conflict'})"
                ),
            )
        self.stats.abort_grants += 1
        self._apply_grant(
            session, item, mode, decision.reason, now,
            outcome=LockOutcome.ABORT_GRANTED, blockers=victim_names,
        )
        self._service_grant_queue()

    def _grant_queue_order(self, park: Park) -> Tuple[int, float, int]:
        """Priority-and-deadline-aware queue key: highest running priority
        first, then earliest deadline, then FIFO by job release."""
        deadline = (
            park.session.deadline
            if park.session.deadline is not None
            else float("inf")
        )
        return (-park.session.job.running_priority, deadline,
                park.session.job.seq)

    def _drain_candidates(self) -> Dict[Session, Park]:
        """Consume the churn sets and pick the parks they can affect.

        A parked request is a re-decide candidate iff (a) a lock on *its
        item* was released, (b) a job *it blames* released any lock (the
        denial reports exactly the holders whose departure can flip it:
        LC1's readers, the ceiling's T*, the footnote's violators, the
        guard's writing predecessors), or (c) its own running priority
        moved since it was last decided (LC2 compares the requester's
        priority against the system ceiling).  Every other denial is
        invariant under the drained churn, so skipping it changes only
        the work done, never the decisions.  All three are index lookups
        — the item index, the wait graph's reverse adjacency captured by
        :meth:`_note_release_churn`, the inheritance pass's change list —
        so the cost follows the candidates, not the queue.  A commit-gate
        park is never one: no lock decision is pending behind it, and
        :meth:`_wake_gates` is what ends it.
        """
        churn_items = self._churn_items
        churn_waiters = self._churn_waiters
        churn_priorities = self._churn_priorities
        self._churn_items = set()
        self._churn_waiters = set()
        self._churn_priorities = set()
        parks = self.parks
        if not parks:
            return {}
        picked: Dict[Session, Park] = {}
        for item in churn_items:
            for session in self._item_parks.get(item, ()):
                picked[session] = parks[session]
        by_job = self._by_job
        gate = ParkKind.COMMIT_GATE
        for job in churn_waiters:
            park = parks.get(by_job[job])  # None: granted since
            if park is not None and park.kind is not gate:
                picked[park.session] = park
        for job in churn_priorities:
            park = parks.get(by_job[job])
            if (
                park is not None
                and park.kind is not gate
                and job.running_priority != park.decided_priority
            ):
                picked[park.session] = park
        return picked

    def _service_grant_queue(self) -> None:
        """Re-decide the parked requests the latest lock churn can flip,
        then sweep for a cycle.

        Blame refreshes in the drain can *redirect* wait edges (a
        denial's blame set tracks the current holders), so a cycle can
        appear without any new request parking — sweep for it, or two
        redirected parks could starve each other forever.
        """
        self._drain_grant_queue()
        if self.parks:
            self._check_deadlock()

    def _drain_grant_queue(self) -> bool:
        """One grant-queue drain; returns whether it granted anything.

        Churn accumulates in ``_churn_items`` / ``_churn_waiters`` /
        ``_churn_priorities`` between drains; each pass re-evaluates only
        the candidates :meth:`_drain_candidates` selects, ordered through
        a heap in (running priority, earliest deadline, FIFO) order.  Each
        candidate is decided *at most once per drain*: a denial removes
        it from the working set (its refreshed blame re-selects it on
        the next relevant churn), and a grant resumes the pass over the
        still-undecided suffix plus whatever fresh churn the grant's
        teardown produced (an ``AbortAndGrant`` feeds its victims'
        releases back through the churn sets).  A pure grant never frees
        a lock, so re-deciding the already-denied prefix after one could
        only flip through a priority ripple — which the next drain's
        priority-delta rule catches.  This is the service counterpart of
        the simulator's wake-then-retry loop, collapsed into one atomic
        step because parked requests need no CPU to proceed — minus the
        full-queue re-sort (and per-grant re-decide storm) the simulator
        never needed either.
        """
        candidates = self._drain_candidates()
        granted = False
        progressed = True
        while progressed and candidates:
            progressed = False
            heap = [
                (self._grant_queue_order(park), park.session.job.seq, park)
                for session, park in candidates.items()
                if self.parks.get(session) is park and not park.future.done()
            ]
            heapq.heapify(heap)
            ordered: List[Park] = []
            while heap:
                ordered.append(heapq.heappop(heap)[2])
            decisions = self._decide_queue(ordered)
            for park, decision in zip(ordered, decisions):
                session = park.session
                # Decided this drain: out of the working set until churn
                # that can actually flip it re-selects it.
                candidates.pop(session, None)
                if isinstance(decision, Deny):
                    continue
                now = self.now()
                self._unpark(session)
                if isinstance(decision, Grant):
                    self._apply_grant(
                        session, park.item, park.mode, decision.rule, now
                    )
                    park.future.set_result(decision.rule)
                else:
                    self._resolve_abort_grant(
                        session, park.item, park.mode, decision, now
                    )
                    park.future.set_result(decision.reason)
                granted = progressed = True
                break  # table changed: resume over the suffix
            if progressed:
                # The grant (or its victims' teardown) is fresh churn:
                # fold any newly affected parks into the working set.
                candidates.update(self._drain_candidates())
        self._recompute_priorities()
        return granted

    def _decide_queue(self, ordered: List[Park]) -> List[
        Union[Grant, AbortAndGrant, Deny]
    ]:
        """Decisions for one grant-queue pass, stopping after the first
        non-``Deny``; every denial's blame is refreshed *before* the next
        park is decided (the new inheritance edges feed the next
        decision's transitive-waiter exemption).

        With the kernel active this is one :meth:`Kernel.decide_batch`
        call — fence and order guard plug into its per-request
        ``pre_decide`` hook and the blame refresh into ``on_deny``, so
        nothing is evaluated for the parks behind the first grant.
        """
        if self.kernel is not None:
            # Denials are exactly the processed prefix of ``ordered`` (the
            # batch stops at the first grant), so the callback walks the
            # same list in lock-step.
            denied = iter(ordered)
            return self.kernel.decide_batch(
                [(p.session.job, p.item, p.mode) for p in ordered],
                on_deny=lambda request, decision: self._refresh_blame(
                    next(denied), decision
                ),
                pre_decide=lambda request: self._service_predecide(*request),
            )
        out: List[Union[Grant, AbortAndGrant, Deny]] = []
        for park in ordered:
            decision = self._service_decide(
                park.session.job, park.item, park.mode
            )
            out.append(decision)
            if not isinstance(decision, Deny):
                break
            self._refresh_blame(park, decision)
        return out

    def _refresh_blame(self, park: Park, decision: Deny) -> None:
        """Point a still-parked request's blame — and kind — at the
        *current* denial (the open block interval keeps its original
        start — one wait is one interval).  Most re-denials repeat the
        previous one; only a moved blame touches the interval, and only
        moved wait edges are announced to the churn listeners."""
        job = park.session.job
        park.decided_priority = job.running_priority
        if self.waits.block(job, decision.blockers, inherit=decision.inherit):
            self._notify_churn("wait", job)
        if (
            decision.blockers == park.blockers
            and decision.reason == park.reason
        ):
            return
        park.kind = ParkKind.of(decision)
        park.reason = decision.reason
        park.blockers = decision.blockers
        last = job.block_intervals[-1]
        last.blockers = tuple(sorted(b.name for b in decision.blockers))
        last.reason = decision.reason

    def _unpark(
        self, session: Session, *, aborting: bool = False
    ) -> Optional[Park]:
        """Take ``session`` out of the registry and close its wait: index
        entry, block interval and ``lock_wait`` sample, state, wait edges.

        The one way out for every park and every ending (granted, woken,
        deadline, cancelled, rejected, aborted).  Idempotent: returns
        ``None`` when another path already cleaned up.  ``aborting``
        marks the abort teardown, whose ``"abort"`` notification alone
        tells mirrors that a gate-parked session left the graph.
        """
        park = self.parks.pop(session, None)
        if park is None:
            return None
        indexed = self._item_parks[park.item]
        del indexed[session]
        if not indexed:
            del self._item_parks[park.item]
        job = session.job
        job.end_block(self.now())
        self.stats.record_wait(
            job.base_priority, job.block_intervals[-1].duration
        )
        session.state = SessionState.ACTIVE
        self.waits.unblock(job)
        if not (aborting and park.kind is ParkKind.COMMIT_GATE):
            self._notify_churn("unwait", job)
        return park

    def _wake_gates(self) -> None:
        """Re-check every gated commit after a session finished."""
        for session in self._item_parks.get(COMMIT_ITEM, ()):
            future = self.parks[session].future
            if not future.done():
                future.set_result(None)

    # ------------------------------------------------------------------
    # Abort / deadlock machinery
    # ------------------------------------------------------------------
    def force_abort(
        self,
        session: Session,
        reason: str,
        *,
        exc: Optional[ServiceError] = None,
    ) -> None:
        """Service-initiated abort, then re-service the grant queue.

        The public entry the shard coordinator uses to cascade a global
        abort onto a leg (and that embedders can use for policy-level
        kills).  Idempotent: a session that already finished is left
        alone.
        """
        if not session.state.live:
            return
        self._abort_session(session, reason, forced=True, exc=exc)
        self._service_grant_queue()

    def _abort_session(
        self,
        session: Session,
        reason: str,
        *,
        forced: bool = True,
        exc: Optional[ServiceError] = None,
    ) -> None:
        """Tear one session down: locks, workspace, graph, history."""
        if not session.state.live:
            return
        park = self._unpark(session, aborting=True)
        if park is not None and not park.future.done():
            park.future.set_exception(
                exc or TransactionAborted(f"{session.name}: {reason}")
            )
        now = self.now()
        job = session.job
        job.workspace.discard()
        session.abort_reason = reason
        self.history.record_abort(job.name, now)
        self.stats.record_abort(job.base_priority, forced=forced)
        self.trace.sched(now, SchedEventKind.ABORT, job.name)
        self._finish(session, SessionState.ABORTED)

    def _finish(self, session: Session, state: SessionState) -> None:
        """The terminal transition commit and abort share: release every
        lock, leave every graph, wake the gates, tell the listeners."""
        job = session.job
        released = self.table.release_all(job)
        self.protocol.on_release_all(job)
        self._note_release_churn(job, (item for item, _ in released))
        self.waits.forget(job)
        if self.kernel is not None:
            self.kernel.retire(job)
        session.state = state
        session.committing = False
        self._committing.pop(job, None)
        self._live.pop(job, None)
        self.constraints.drop(job)
        self._recompute_priorities()
        self._sample_sysceil()
        self._wake_gates()
        self._notify_churn(
            "finish" if state is SessionState.COMMITTED else "abort", job
        )

    def _is_service_cycle(self, cycle: Tuple[Job, ...]) -> bool:
        """True when the cycle runs through a service-made park (guard,
        fence, gate), which Theorem 2 does not cover: see
        :attr:`ParkKind.service_made`."""
        return any(
            self.parks[self._by_job[job]].kind.service_made for job in cycle
        )

    def _check_deadlock(self) -> None:
        """Resolve, or report, the wait-for cycles the latest edges closed."""
        while True:
            cycle = self.waits.find_new_cycle()
            if cycle is None:
                return
            if (
                self.protocol.can_deadlock
                # IPCP-style guarantees hold only under the simulator's
                # single-CPU dispatching; with concurrent clients a cycle
                # is an expected (resolvable) event, not a broken
                # invariant.
                or getattr(self.protocol,
                           "deadlock_free_requires_scheduler", False)
                or self._is_service_cycle(cycle)
            ):
                break
            # Theorem 2 rules this cycle out — given Lemma 8: locks held
            # by a transaction waiting on the requester never deny it.
            # That exemption is evaluated when a request is decided, and
            # a member parked *before* its blocker began waiting on it
            # was denied by locks that no longer count (one CPU never
            # produces that order; concurrent clients do).  Re-decide the
            # members now that every one of them is waited on; only a
            # cycle that survives is a violation.
            self._churn_waiters.update(cycle)
            if not self._drain_grant_queue():
                raise InvariantViolation(
                    "wait-for cycle under deadlock-free protocol "
                    f"{self.protocol.name}: "
                    f"{' -> '.join(j.name for j in cycle)} ["
                    + "; ".join(
                        self.parks[self._by_job[j]].describe() for j in cycle
                    )
                    + "]"
                )
        names = " -> ".join(j.name for j in cycle)
        self.stats.deadlocks += 1
        if self.config.deadlock_action == "raise":
            raise ServiceError(f"deadlock detected: {names}")
        victim_job = min(cycle, key=lambda j: (j.base_priority, -j.seq))
        victim = self._by_job[victim_job]
        self._abort_session(
            victim, "deadlock",
            exc=TransactionAborted(
                f"{victim.name} chosen as deadlock victim ({names})"
            ),
        )
        self._service_grant_queue()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _recompute_priorities(self) -> None:
        changed = self.waits.recompute_priorities(self._live, self._floor)
        if not changed:
            return
        if len(changed) > 1:
            # Session ids order like ``_live``: oldest session first.
            by_job = self._by_job
            changed.sort(key=lambda job: by_job[job].id)
        now = self.now()
        for job in changed:
            self.trace.priority(now, job.name, job.running_priority)
        self._churn_priorities.update(changed)

    def _sample_sysceil(self) -> None:
        if self.config.record_sysceil:
            self.trace.sysceil(self.now(), self._sysceil(None))
