"""The synchronous lock core: sessions, decisions, parks, grant queue, commit.

One :class:`LockCore` owns the lock-side objects a :class:`Simulator`
owns — a :class:`~repro.engine.lock_table.LockTable`, a
:class:`~repro.engine.inheritance.WaitForGraph`, a committed
:class:`~repro.db.history.History` — plus a :class:`VersionStore` of
current versions, and drives them from client requests instead of from
a virtual-time calendar.  It holds live sessions only: a finished
transaction leaves behind its history rows and its instance number,
nothing else (docs/SERVICE.md, "What a finished transaction leaves
behind"); decisions and priority changes reach whoever subscribes
(``decision_listeners`` / ``priority_listeners``) and are not kept.

Admission decisions are made by the array kernel compiled from the
*same* protocol objects the simulator uses (``Kernel.decide``), so the
service's grant/deny behaviour is the simulator's by construction; the
differential battery in ``tests/test_service_differential.py`` pins
that claim.  The service serves the ceiling protocols in
:data:`SERVED_PROTOCOLS` only — each compiles to a kernel table and
stays deadlock-free without the simulator's single-CPU scheduler; every
other protocol runs in the simulator alone.

There is no event loop here (docs/SERVICE.md, "Concurrency model"):

* every operation is one synchronous call, so decide→grant pairs are
  atomic and the lock table is never observed mid-update;
* an operation that cannot complete registers a
  :class:`~repro.service.park.Park` — one per waiting session, whatever
  it waits for — and returns it; its blockers inherit the requester's
  priority through the shared wait-for graph, exactly as in the engine;
* a park ends through :func:`~repro.service.park.end_park`, which stores
  its outcome on the record and wakes whoever awaits it: the grant rule
  when the grant queue grants it, ``None`` when the grant queue finds a
  commit gate cleared, the exception when the session is aborted.  The
  caller then calls the same operation again with ``resume=park``: it
  raises that exception, or carries on after the wait without
  re-running the entry checks — so a grant that landed before the
  session's deadline stands;
* every lock release re-services the grant queue in (running priority,
  earliest deadline, FIFO) order, re-evaluating exactly the parks the
  release can affect: one wake rule for every kind — a park is
  re-examined only when a job its denial blames releases its locks, or
  its own running priority moves (the wait-for graph's edges are the
  index; every other denial is invariant under the churn); "wake" and
  "grant" are one atomic step here because there is no CPU to
  schedule, unlike the simulator's wake-then-retry dance;
* commits install deferred writes from the session workspace into the
  shared database under a monotonic service clock, so the recorded
  history replays through :func:`repro.db.serializability.check_serializable`
  unchanged.

:class:`~repro.service.manager.LockManager` is the event-loop adapter
over this class: it awaits a returned park and turns a deadline or a
cancellation mid-wait into :meth:`LockCore.expire`.  Without it, a
schedule is a list of core calls (``tests/test_service_core.py``).

Deadlines are *firm*: an expired session is aborted at its next operation
boundary, or mid-wait by the adapter, mirroring the simulator's
``on_miss="abort"`` policy.

Serialization-order enforcement (the concurrency delta vs the simulator):

PCP-DA's LC3/LC4 let a reader pass an item's *write* lock — the paper's
"dynamic adjustment": the reader observes the committed version and is
therefore serialized *before* the still-running writer.  On a single CPU
the priority scheduler enforces that order for free (the higher-priority
reader runs to completion before the writer regains the CPU); with truly
concurrent clients nothing does, and the writer could commit mid-flight
and leak its installs to the reader — a cycle the serializability oracle
duly reports.  The core therefore makes the adjusted order explicit:

* a granted read on an item with live write holders records a
  ``reader ≺ writer`` constraint for each holder (the constraint graph
  stays acyclic because the order guard below refuses reads that would
  close a cycle);
* **commit gate** — a session with live ``≺``-predecessors parks its
  commit until they finish, so its installs can never be observed by a
  transaction serialized before it; the gate blames those predecessors,
  so each one's terminal re-checks it in the grant queue;
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
assumption.  A pure lock cycle is re-decided once and otherwise remains
an :class:`InvariantViolation`, exactly as in the simulator.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Dict, Iterable, List, Optional, Set, Tuple, Union,
)

from repro.db.database import Version
from repro.db.history import History
from repro.engine.inheritance import WaitForGraph
from repro.engine.interfaces import Deny, Grant
from repro.engine.job import Job
from repro.engine.kernel import build_kernel
from repro.engine.lock_table import LockTable
from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    InvariantViolation,
    ServiceError,
    SessionStateError,
    SpecificationError,
    TransactionAborted,
)
from repro.model.spec import LockMode, TaskSet, TransactionSpec
from repro.model.validation import validate_taskset
from repro.protocols import make_protocol
from repro.service import SERVED_PROTOCOLS
from repro.service.constraints import ConstraintGraph
from repro.service.park import (
    COMMIT_ITEM,
    Park,
    ParkKind,
    ServiceDeny,
    end_park,
)
from repro.service.stats import ServiceStats
from repro.trace.recorder import LockEvent, LockOutcome


def check_served(protocol: str) -> None:
    """Raise :class:`SpecificationError` unless the service serves
    ``protocol`` (see :data:`SERVED_PROTOCOLS`)."""
    if protocol not in SERVED_PROTOCOLS:
        raise SpecificationError(
            f"the lock service serves {', '.join(SERVED_PROTOCOLS)} only, "
            f"not {protocol!r} (every protocol runs in the simulator)"
        )


def catalog_document(catalog: TaskSet) -> List[Dict[str, Any]]:
    """JSON-friendly description of a catalog's transaction types.

    Shared by :meth:`LockCore.catalog_document` and the remote shard
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


def check_deadline(deadline_s: Any) -> None:
    """Raise :class:`SpecificationError` unless a per-request relative
    deadline is absent or a positive number (the rule of
    :attr:`ServiceConfig.default_deadline_s`).  It arrives as a JSON
    value: a boolean is not a number, though Python counts it as one."""
    if deadline_s is None:
        return
    if (
        not isinstance(deadline_s, (int, float))
        or isinstance(deadline_s, bool)
        or not deadline_s > 0
    ):
        raise SpecificationError(
            f"deadline_s must be a positive number, not {deadline_s!r}"
        )


def check_access(
    name: str, spec: TransactionSpec, item: str, mode: LockMode
) -> None:
    """Raise :class:`SessionStateError` unless ``item`` is in ``spec``'s
    declared access set (a read) or write set (a write).

    Ceilings are static, so a session never steps outside them.  The
    shard coordinator makes the same check before it routes a request,
    so a refused one opens no leg.
    """
    allowed = spec.access_set if mode is LockMode.READ else spec.write_set
    if item not in allowed:
        raise SessionStateError(
            f"{name}: {mode.value} of {item!r} is outside the "
            f"declared {'access' if mode is LockMode.READ else 'write'} "
            f"set of {spec.name} (ceilings are static — register the "
            "item in the catalog)"
        )


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
    """Tunables of one lock manager.

    Attributes:
        max_sessions: admission-control cap on concurrently live sessions;
            ``begin`` raises :class:`AdmissionError` beyond it (``None`` =
            unbounded).
        default_deadline_s: relative deadline applied to sessions that do
            not specify one (``None`` = no deadline).
    """

    max_sessions: Optional[int] = None
    default_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_sessions is not None and self.max_sessions < 1:
            raise SpecificationError("max_sessions must be >= 1")
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise SpecificationError("default_deadline_s must be positive")


class SessionRecord:
    """What a :class:`SessionTable` knows of each session it holds, in
    either core; a subclass adds ``name`` and ``in_flight``."""

    __slots__ = ("id", "state", "deadline", "opened_at", "abort_reason")

    def __init__(self, session_id: int, opened_at: float,
                 deadline: Optional[float] = None) -> None:
        self.id = session_id
        self.state = SessionState.ACTIVE
        #: Absolute deadline on the service clock, or None.
        self.deadline = deadline
        self.opened_at = opened_at
        self.abort_reason = ""


class Session(SessionRecord):
    """One live transaction: a :class:`Job` plus service bookkeeping.

    The embedded job is a *real* engine job — the protocols read its
    ``running_priority`` / ``data_read`` / ``spec`` exactly as they would
    inside the simulator, and its block intervals accumulate the same
    blocking statistics the paper's figures are built from.
    """

    __slots__ = ("job",)

    def __init__(self, session_id: int, job: Job, opened_at: float,
                 deadline: Optional[float] = None):
        SessionRecord.__init__(self, session_id, opened_at, deadline)
        self.job = job

    @property
    def name(self) -> str:
        """The underlying job's instance name (``"T2#7"``)."""
        return self.job.name

    @property
    def in_flight(self) -> bool:
        """Whether an operation is in progress: one that returned a park
        is the only kind that outlives its call."""
        return self.state is SessionState.WAITING

    @property
    def priority(self) -> int:
        """The job's base priority (wire ``begin`` reports this; the
        sharded coordinator exposes the same attribute on its sessions)."""
        return self.job.base_priority


class VersionStore:
    """The service's committed state: each item's current version only.

    Deferred writes install at commit and a reader keeps the value it
    first read in its own workspace, so no live transaction can reach a
    superseded version; the simulator's
    :class:`~repro.db.database.Database` keeps them all for its traces,
    the service keeps none.
    """

    __slots__ = ("_current", "_seq")

    def __init__(self, items: Iterable[str]) -> None:
        self._current = {name: Version(None, None, 0.0, 0) for name in items}
        self._seq = 0

    def read_committed(self, item: str) -> Version:
        """The latest installed version of ``item``."""
        return self._current[item]

    def install(
        self, item: str, value: Any, writer: str, time: float
    ) -> Version:
        """Install a committed value under the next global sequence number."""
        self._seq += 1
        version = self._current[item] = Version(value, writer, time, self._seq)
        return version


_NO_DEADLINE = float("inf")

#: The grant-queue answer for a parked commit whose gate has no live
#: predecessor left: the park ends with ``None`` and the commit installs.
_GATE_CLEAR = Grant("commit gate clear")


def _names(blockers: Tuple[Job, ...]) -> Tuple[str, ...]:
    """Blocker names, sorted, as the trace and block intervals record
    them (one blocker, the common case, needs no sort)."""
    if len(blockers) == 1:
        return (blockers[0].name,)
    return tuple(sorted(b.name for b in blockers))


def _queue_order(park: Park) -> Tuple[int, float, int]:
    """Grant-queue key: highest running priority first, then earliest
    deadline, then FIFO by job release."""
    session = park.session
    deadline = session.deadline
    return (
        -session.job.running_priority,
        _NO_DEADLINE if deadline is None else deadline,
        session.job.seq,
    )


class SessionTable:
    """The session lifecycle both lock cores share: the service clock,
    session ids and instance numbers, admission control and deadlines,
    lookup, and the checks an operation or a client abort makes first.

    :class:`LockCore` and the shard coordinator's
    :class:`~repro.service.sharding.core.ShardedCore` subclass it and
    make every lock decision themselves; each says in ``_expire`` how an
    expired session is torn down.  ``_sessions`` holds live sessions
    only, by id, oldest first: a session leaves at its terminal.
    """

    def __init__(self, catalog: TaskSet,
                 config: Optional[ServiceConfig]) -> None:
        self.catalog = catalog
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        self._sessions: Dict[int, Any] = {}
        self._next_session_id = 0
        #: transaction -> next instance number.
        self._instances: Dict[str, int] = {}
        self._t0 = time.monotonic()
        self._closed = False

    def now(self) -> float:
        """Seconds since the core started (the service clock)."""
        return time.monotonic() - self._t0

    def session(self, session_id: int) -> Any:
        """Look up a live session by id (for the wire layer).

        Raises :class:`SessionStateError` for any other id: ids are
        issued in order, so one below the next id is a finished session.
        An id is an ``int`` and nothing else: ``True == 1 == 1.0`` as a
        dict key, so a JSON boolean or float would address a real session.
        """
        session = self._sessions.get(session_id)
        if session is not None and type(session_id) is int:
            return session
        if type(session_id) is int and 0 <= session_id < self._next_session_id:
            raise SessionStateError(f"session {session_id} already finished")
        raise SessionStateError(f"unknown session {session_id!r}")

    def is_live(self, session_id: int) -> bool:
        """Whether ``session_id`` names a live session (never raises)."""
        return type(session_id) is int and session_id in self._sessions

    def live_sessions(self) -> Tuple[Any, ...]:
        """Currently live (active or waiting) sessions, oldest first."""
        return tuple(self._sessions.values())

    def expire(self, session: Any, reason: str) -> None:
        """Abort ``session`` from outside its operation: its deadline
        passed (``reason="deadline"``) or its client went away.  A
        session that already finished is left alone."""
        if reason == "deadline" and session.state.live:
            self.stats.deadline_aborts += 1
        self._expire(session, reason)

    def _expire(self, session: Any, reason: str) -> None:
        raise NotImplementedError

    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("lock manager is shut down")

    def _check_begin(
        self, transaction: str, deadline_s: Optional[float]
    ) -> TransactionSpec:
        """The first checks of ``begin``: the core is open, the
        transaction is in the catalog, ``deadline_s`` is valid."""
        self._ensure_open()
        spec = self.catalog[transaction]
        check_deadline(deadline_s)
        return spec

    def _check_capacity(self) -> None:
        """Refuse a new session beyond the ``max_sessions`` cap."""
        limit = self.config.max_sessions
        if limit is not None and len(self._sessions) >= limit:
            self.stats.sessions_rejected += 1
            raise AdmissionError(
                f"session limit reached ({limit} live sessions); retry later"
            )

    def _number(self, transaction: str, instance: Optional[int] = None) -> int:
        """The instance number of a new session of ``transaction``: the
        pinned ``instance``, or the next one drawn.  The counter stays
        past every pin, so a drawn number is new too."""
        drawn = self._instances.get(transaction, 0)
        if instance is None:
            instance = drawn
        self._instances[transaction] = max(drawn, instance + 1)
        return instance

    def _open(self, session: Any, deadline_s: Optional[float]) -> Any:
        """Register ``session``, built under id ``_next_session_id``,
        with its absolute deadline: ``deadline_s``, or the configured
        default, after it opened."""
        relative = (
            deadline_s if deadline_s is not None
            else self.config.default_deadline_s
        )
        if relative is not None:
            session.deadline = session.opened_at + relative
        self._next_session_id += 1
        self._sessions[session.id] = session
        self.stats.sessions_started += 1
        return session

    def _pre_op(self, session: Any) -> None:
        """The checks every new operation makes: the core is open, no
        operation of the session is in flight, it is live, and its
        deadline has not passed (an expired session is aborted)."""
        self._ensure_open()
        if session.in_flight:
            raise SessionStateError(
                f"{session.name}: a previous operation is still waiting "
                "for a lock (one in-flight operation per session)"
            )
        if not session.state.live:
            raise SessionStateError(
                f"{session.name}: session already {session.state.value}"
            )
        if session.deadline is not None and self.now() > session.deadline:
            self.expire(session, "deadline")
            raise DeadlineExceeded(
                f"{session.name}: deadline passed before the operation"
            )

    def _check_abort(self, session: Any) -> None:
        """The checks a client abort makes: the session is live and no
        operation of it is in flight."""
        if not session.state.live:
            raise SessionStateError(
                f"{session.name}: cannot abort a {session.state.value} session"
            )
        if session.in_flight:
            raise SessionStateError(
                f"{session.name}: another operation is waiting for a lock"
            )


class LockCore(SessionTable):
    """Decide, grant, park and wake lock requests under one protocol.

    Args:
        catalog: the registered transaction types (a :class:`TaskSet` with
            total-order priorities).  Ceilings are static information, so
            the protocol family needs the catalog up front — a session is
            an *instance* of a catalog transaction, exactly like a job is
            an instance of a spec in the simulator.
        protocol: a protocol name from :data:`SERVED_PROTOCOLS`.
        config: see :class:`ServiceConfig`.
    """

    def __init__(
        self,
        catalog: TaskSet,
        protocol: str = "pcp-da",
        config: Optional[ServiceConfig] = None,
    ) -> None:
        check_served(protocol)
        validate_taskset(catalog, require_priorities=True)
        if COMMIT_ITEM in catalog.items:
            raise SpecificationError(
                f"item name {COMMIT_ITEM!r} is reserved for the commit gate"
            )
        super().__init__(catalog, config)
        self.protocol = make_protocol(protocol)
        self.table = LockTable()
        self.waits = WaitForGraph()
        self.db = VersionStore(catalog.items)
        self.history = History()
        #: Callbacks fired synchronously on every lock decision (grants
        #: and denials) with the :class:`LockEvent`; the event is built
        #: only when one is registered.  The parity harness
        #: (:mod:`repro.verify.parity`) uses this to capture a decision
        #: sequence in global order — including across the shards of a
        #: coordinator, where per-shard streams interleave.
        self.decision_listeners: List[Callable[[LockEvent], None]] = []
        #: Callbacks fired with each live job whose running priority
        #: moved (inheritance gained or lost), oldest session first.
        self.priority_listeners: List[Callable[[Job], None]] = []
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
        self.protocol.bind(catalog, self.table)
        self.protocol.bind_runtime(self.waits)
        #: The array kernel compiled from the protocol: it answers every
        #: admission decision and system-ceiling query.
        self.kernel = build_kernel(self.protocol, self.table, self.waits)
        self._decide = self.kernel.decide
        self._sysceil = self.kernel.system_ceiling

        #: Live sessions by job (``_sessions`` holds them by id).  A
        #: finished session leaves both in :meth:`_finish`, ``_by_job``
        #: once the terminal churn listeners (which may still look it up)
        #: have run; the inheritance pass tests membership against it.
        self._by_job: Dict[Job, Session] = {}
        #: The registry: every waiting session's :class:`Park`, whatever
        #: it waits for (lock, order guard, commit fence, commit gate).
        self.parks: Dict[Session, Park] = {}
        #: Lock churn since the last grant-queue drain: items whose locks
        #: were released, the jobs waiting directly on a releasing job, and
        #: the jobs whose running priority moved.  Terminal transitions and
        #: dropped commit fences feed these; the drain re-decides only the
        #: waiters they can affect.
        self._churn_waiters: Set[Job] = set()
        self._churn_priorities: Set[Job] = set()
        #: Serialization-order constraints ``reader ≺ writer`` among live
        #: jobs (see module docstring).  Public: the shard coordinator
        #: reads a shard's closure through it.
        self.constraints = ConstraintGraph()
        #: Commit-fenced sessions (see :meth:`prepare_commit`): while a
        #: job is in here, reads may not pass its write locks.
        self._committing: Dict[Job, Session] = {}
        #: transaction -> every instance number issued.
        self._issued: Dict[str, Set[int]] = {}

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin(
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
            SpecificationError: unknown transaction name, a pin that is
                not a non-negative integer, an instance number already
                issued, or a ``deadline_s`` that is not a positive number.
            ServiceError: the manager is shut down.
        """
        spec = self._check_begin(transaction, deadline_s)
        for name, pin in (("instance", instance), ("seq", seq)):
            if pin is not None and (type(pin) is not int or pin < 0):
                raise SpecificationError(
                    f"{name} must be a non-negative integer, not {pin!r}"
                )
        issued = self._issued.setdefault(transaction, set())
        if instance in issued:
            raise SpecificationError(f"{transaction}#{instance} exists")
        self._check_capacity()
        now = self.now()
        instance = self._number(transaction, instance)
        issued.add(instance)
        job = Job(spec, instance, now)
        if seq is not None:
            job.seq = seq
        session = self._open(
            Session(self._next_session_id, job, now), deadline_s
        )
        self._by_job[job] = session
        return session

    def add_decision_listener(
        self, listener: Callable[[LockEvent], None]
    ) -> None:
        """Subscribe ``listener`` to every recorded lock decision."""
        self.decision_listeners.append(listener)

    def read(
        self, session: Session, item: str, *, resume: Optional[Park] = None
    ) -> Any:
        """Read ``item``, acquiring the read lock first if needed.

        Returns the observed value: the session's own buffered write when
        one exists, otherwise the committed version bound on first read
        (re-reads return the same version — locks are held to commit).
        Returns the :class:`Park` instead when the lock request has to
        wait; call again with ``resume=`` that park once it has ended.
        """
        self._enter(session, item, LockMode.READ, resume)
        job = session.job
        if job.workspace.has_write(item):
            # Own deferred write: intra-transaction, no lock, no history.
            return job.workspace.written_value(item)
        if not (
            self.table.holds(job, item, LockMode.READ)
            or self.table.holds(job, item, LockMode.WRITE)
        ):
            park = self._acquire(session, item, LockMode.READ)
            if park is not None:
                return park
        record = job.workspace.read_record(item)
        if record is not None:
            return record.value  # re-read under the held lock
        now = self.now()
        version = self.db.read_committed(item)
        job.data_read.add(item)
        job.workspace.note_read(item, version.seq, now, value=version.value)
        self.history.record_read(job.name, item, version.seq, now)
        return version.value

    def write(
        self,
        session: Session,
        item: str,
        value: Any,
        *,
        resume: Optional[Park] = None,
    ) -> Optional[Park]:
        """Buffer a deferred write of ``value`` to ``item``.

        The write-lock request goes through the protocol (LC1 for PCP-DA);
        the value stays in the session workspace until commit.  Returns
        ``None``, or the :class:`Park` to ``resume`` from.
        """
        self._enter(session, item, LockMode.WRITE, resume)
        job = session.job
        if not self.table.holds(job, item, LockMode.WRITE):
            park = self._acquire(session, item, LockMode.WRITE)
            if park is not None:
                return park
        job.workspace.buffer_write(item, value)
        return None

    def commit(
        self, session: Session, *, resume: Optional[Park] = None
    ) -> Union[Dict[str, Any], Park]:
        """Commit: install buffered writes atomically, release all locks.

        Returns a summary dict (installed items, latency, blocking time),
        or the commit-gate :class:`Park` to ``resume`` from.
        """
        self._enter(session, None, None, resume)
        job = session.job
        gate = self._commit_gate(job)
        if gate is not None:
            return self._park(
                session, COMMIT_ITEM, LockMode.WRITE, gate, self.now()
            )
        # Every served protocol holds its locks to commit, so installing
        # the workspace here is indistinguishable from installing in place.
        now = self.now()
        writes = job.workspace.pending_writes
        installed = sorted(writes)
        for item in installed:
            version = self.db.install(item, writes[item], job.name, now)
            self.history.record_install(job.name, item, version.seq, now)
        self.history.record_commit(job.name, now)
        job.finish_time = now
        self._finish(session, SessionState.COMMITTED)
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
        gate once every leg is fenced.
        """
        if not session.state.live:
            raise TransactionAborted(
                f"{session.name}: {session.abort_reason or 'not live'}"
            )
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
        # Fence denials blame the fenced job; dropping the fence is churn
        # on that job, which re-selects exactly those waiters.
        self._note_release_churn(session.job)
        self._service_grant_queue()

    def abort(self, session: Session, reason: str = "client") -> None:
        """Abort the session: discard its workspace, release its locks."""
        self._check_abort(session)
        self._abort_session(session, reason, forced=False)
        self._service_grant_queue()

    def _expire(self, session: Session, reason: str) -> None:
        """A parked session leaves the queue first, announced as
        ``"unwait"`` like any live exit from the wait-for graph, then is
        torn down."""
        self._unpark(session)
        self.force_abort(session, reason)

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

    def shutdown(self) -> None:
        """Abort every live session and refuse further requests."""
        if self._closed:
            return
        self._closed = True
        for session in list(self._sessions.values()):
            self._abort_session(
                session, "shutdown",
                exc=TransactionAborted("service shutting down"),
            )
        self._service_grant_queue()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def system_ceiling(self) -> int:
        """The current global system ceiling (kernel-backed when active)."""
        return self._sysceil(None)

    def stats_document(self) -> Dict[str, Any]:
        """The ``stats`` command payload: counters + live-state gauges."""
        doc = self.stats.to_dict()
        doc["live_sessions"] = len(self._sessions)
        doc["waiting_sessions"] = len(self.parks)
        doc["protocol"] = self.protocol.name
        doc["uptime_s"] = self.now()
        doc["system_ceiling"] = self.system_ceiling()
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

    # ------------------------------------------------------------------
    # Operation plumbing
    # ------------------------------------------------------------------
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
        """Fan one lock decision out to the listeners, if any."""
        if self.decision_listeners:
            event = LockEvent(
                time, job_name, item, mode, outcome, rule, blockers
            )
            for listener in self.decision_listeners:
                listener(event)

    def _notify_churn(
        self, kind: str, job: Job, other: Optional[Job] = None
    ) -> None:
        """Fan one churn event out to the registered listeners."""
        for listener in self.churn_listeners:
            listener(kind, job, other)

    def _note_release_churn(self, job: Job) -> None:
        """Record released locks for the next grant-queue drain.

        Must run while ``job``'s wait edges still stand (before
        ``waits.forget``): the jobs waiting directly on it are exactly the
        parked requests whose latest denial blames it.
        """
        self._churn_waiters.update(self.waits.waiters_on(job))

    def _enter(
        self,
        session: Session,
        item: Optional[str],
        mode: Optional[LockMode],
        resume: Optional[Park],
    ) -> None:
        """Shared entry checks: session state, deadline, access sets.

        An operation re-entering after ``resume`` ended skips them and
        takes that park's outcome instead: its exception is raised, a
        grant or a cleared commit gate stands — even when the deadline
        passed since it landed.  Whoever ended the park has already
        taken it out of the registry.
        """
        if resume is not None:
            if isinstance(resume.outcome, BaseException):
                raise resume.outcome
            if not session.state.live:
                # Aborted after its park ended, before re-entering.
                raise TransactionAborted(
                    f"{session.name}: {session.abort_reason}"
                )
            return
        self._pre_op(session)
        if item is not None and mode is not None:
            check_access(session.name, session.job.spec, item, mode)

    # ------------------------------------------------------------------
    # Lock acquisition and the grant queue
    # ------------------------------------------------------------------
    def _acquire(
        self, session: Session, item: str, mode: LockMode
    ) -> Optional[Park]:
        """Grant ``mode`` on ``item`` now (``None``), or park the request
        in the grant queue and return its park."""
        job = session.job
        decision = self._service_decide(job, item, mode)
        now = self.now()
        if isinstance(decision, Grant):
            self._apply_grant(session, item, mode, decision.rule, now)
            return None
        self.stats.record_denial(job.base_priority)
        self._trace_lock(
            now, job.name, item, mode, LockOutcome.DENIED, decision.reason,
            _names(decision.blockers),
        )
        return self._park(session, item, mode, decision, now)

    def _park(
        self, session: Session, item: str, mode: LockMode, deny: Deny,
        now: float,
    ) -> Park:
        """Register ``session`` as waiting on ``deny.blockers``: the one
        way into the registry, whatever the wait is for.

        The wait joins the shared wait-for graph, so the blockers inherit
        the requester's priority and a cycle through it is visible to
        :meth:`_check_deadlock` — which may end the returned park
        (granted, or aborted as the victim) before it is returned, or
        report an :class:`InvariantViolation`, in which case the
        requester is aborted and the park is gone again when the
        exception propagates.
        """
        job = session.job
        park = Park(
            session, ParkKind.of(deny), deny.blockers, now,
            item, mode, deny.reason, job.running_priority,
        )
        self.parks[session] = park
        session.state = SessionState.WAITING
        job.begin_block(
            now, item, mode, _names(deny.blockers),
            deny.reason,
        )
        self.waits.block(job, deny.blockers, inherit=deny.inherit)
        self._notify_churn("wait", job)
        self._recompute_priorities()
        try:
            self._check_deadlock()
        except InvariantViolation:
            # A cycle the paper rules out.  Left live, the requester keeps
            # its locks and every other client stalls on them.
            self._unpark(session)
            self._abort_session(session, "invariant violation")
            self._service_grant_queue()
            raise
        return park

    def _order_guard(self, job: Job, item: str) -> Optional[Deny]:
        """The service-level guard decision on a read, or ``None`` to pass
        through.

        A read of an item inside a live transitive ``≺``-predecessor's
        write set must wait: granting it would let the requester observe
        state that a transaction serialized *before* it is about to
        overwrite (or would close a cycle in the constraint graph).  This
        is the Table-1 footnote condition applied forward in time.
        """
        if not self.constraints.direct_preds(job):
            return None  # no ≺-predecessor at all: nothing to guard
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

    def _commit_fence(self, job: Job, item: str) -> Optional[Deny]:
        """Deny a read past a fenced (committing) session's write locks.

        Between :meth:`prepare_commit` and the commit (or
        :meth:`unprepare_commit`), an LC3/LC4 read passing one of the
        fenced session's write locks would record a new ``reader ≺
        committer`` constraint that the coordinator's merged gate check
        can no longer see in time — so the read parks until the install
        completes (it then reads the new version, serialized after) or
        the fence is dropped (it then passes as usual).
        """
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

    def _commit_gate(self, job: Job) -> Optional[Deny]:
        """Deny a commit while a transaction serialized before it (one
        that read past its write locks) is live: that reader could
        observe this commit's installs and close a serialization cycle.

        The denial blames every live direct ``≺``-predecessor, so each
        one's terminal re-checks the gate in the grant queue.
        """
        predecessors = tuple(sorted(
            self.constraints.direct_preds(job), key=lambda j: j.seq
        ))
        if predecessors:
            return ServiceDeny(
                predecessors,
                "commit gate: transactions serialized before this one "
                "are still running",
                kind=ParkKind.COMMIT_GATE,
            )
        return None

    def _service_predecide(
        self, job: Job, item: str, mode: LockMode
    ) -> Union[Grant, Deny, None]:
        """The service-level pre-decision, or ``None`` to fall through to
        the kernel: a parked commit is answered by its gate alone (a
        cleared gate is :data:`_GATE_CLEAR`); reads meet the commit fence
        — looked at only while a session is fenced — then the order
        guard."""
        if mode is not LockMode.READ:
            if item == COMMIT_ITEM:
                return self._commit_gate(job) or _GATE_CLEAR
            return None
        fence = self._commit_fence(job, item) if self._committing else None
        return fence or self._order_guard(job, item)

    def _service_decide(
        self, job: Job, item: str, mode: LockMode
    ) -> Union[Grant, Deny]:
        """The kernel's decision, tightened by the commit fence and the
        order guard."""
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
    ) -> None:
        job = session.job
        self.table.grant(job, item, mode)
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
        self._trace_lock(now, job.name, item, mode, LockOutcome.GRANTED, rule)

    def _drain_candidates(self) -> Dict[Session, Park]:
        """Consume the churn sets and pick the parks they can affect.

        A park of any kind is a re-decide candidate iff (a) a job *it
        blames* released its locks (the denial reports exactly the jobs
        whose departure can flip it: LC1's readers, the ceiling's T*, the
        footnote's violators, the guard's writing predecessors, the
        fenced writer, the gate's live predecessors — the jobs that
        inherit the requester's priority), or (b) its own running
        priority moved since it was last decided (LC2 compares the
        requester's priority against the system ceiling).  Every other
        denial is invariant under the drained churn, so skipping it
        changes only the work done, never the decisions.  Both are index
        lookups — the wait graph's reverse adjacency captured by
        :meth:`_note_release_churn`, the inheritance pass's change list —
        so the wait-for graph is the one index, and the cost follows the
        candidates, not the queue.
        """
        churn_waiters = self._churn_waiters
        churn_priorities = self._churn_priorities
        self._churn_waiters = set()
        self._churn_priorities = set()
        parks = self.parks
        if not parks:
            return {}
        picked: Dict[Session, Park] = {}
        # A job churned since the last drain may have been granted (no
        # park) or have finished (no session) meanwhile.
        by_job = self._by_job
        for job in churn_waiters:
            park = parks.get(by_job.get(job))
            if park is not None:
                picked[park.session] = park
        for job in churn_priorities:
            park = parks.get(by_job.get(job))
            if (
                park is not None
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

        Churn accumulates in ``_churn_waiters`` / ``_churn_priorities``
        between drains; each pass re-evaluates only the candidates
        :meth:`_drain_candidates` selects, sorted in (running priority,
        earliest deadline, FIFO) order.  A pass is one
        :meth:`Kernel.decide_batch` call: the commit gate, the commit
        fence and the order guard answer ahead of the table, and every
        denial's blame is refreshed *before* the next park is decided
        (the new inheritance edges feed the next decision's
        transitive-waiter exemption); the batch stops at the first grant.
        A cleared gate counts as one: its park ends with ``None`` and the
        commit re-enters to install.  Each candidate is decided *at most
        once per drain*: a denial removes it from the working set (its
        refreshed blame re-selects it on the next relevant churn), and a
        grant resumes the pass over the still-undecided suffix plus
        whatever fresh churn the grant produced.  A grant never frees a
        lock, so re-deciding the already-denied prefix after one could
        only flip through a priority ripple — which the next drain's
        priority-delta rule catches.  This is the service counterpart of the simulator's
        wake-then-retry loop, collapsed into one atomic step because
        parked requests need no CPU to proceed — minus the full-queue
        re-sort (and per-grant re-decide storm) the simulator never needed
        either.
        """
        candidates = self._drain_candidates()
        parks = self.parks
        granted = False
        while candidates:
            ordered = sorted(
                (park for session, park in candidates.items()
                 if parks.get(session) is park),
                key=_queue_order,
            )
            decisions = self.kernel.decide_batch(
                [(park.session.job, park.item, park.mode, park)
                 for park in ordered],
                self._service_predecide, self._refresh_blame,
            )
            for park in ordered[:len(decisions)]:
                # Decided this drain: out of the working set until churn
                # that can actually flip it re-selects it.
                del candidates[park.session]
            if not decisions or isinstance(decisions[-1], Deny):
                break
            park = ordered[len(decisions) - 1]
            self._unpark(park.session)
            if park.kind is ParkKind.COMMIT_GATE:
                end_park(park, None)  # the commit re-enters and installs
            else:
                rule = decisions[-1].rule
                self._apply_grant(park.session, park.item, park.mode, rule,
                                  self.now())
                end_park(park, rule)
            granted = True
            # The grant is fresh churn: fold any newly affected parks into
            # the working set, and resume over the suffix.
            candidates.update(self._drain_candidates())
        self._recompute_priorities()
        return granted

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
        last.blockers = _names(decision.blockers)
        last.reason = decision.reason

    def _unpark(self, session: Session) -> Optional[Park]:
        """Take ``session`` out of the registry and close its wait: block
        interval and ``lock_wait`` sample, state, wait edges, announced
        as ``"unwait"``.

        The one way out for every park and every ending (granted, gate
        cleared, deadline, cancelled, rejected, aborted).  Idempotent:
        returns ``None`` when another path already cleaned up.
        """
        park = self.parks.pop(session, None)
        if park is None:
            return None
        job = session.job
        job.end_block(self.now())
        self.stats.record_wait(
            job.base_priority, job.block_intervals[-1].duration
        )
        session.state = SessionState.ACTIVE
        self.waits.unblock(job)
        self._notify_churn("unwait", job)
        return park

    # ------------------------------------------------------------------
    # Abort / deadlock machinery
    # ------------------------------------------------------------------
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
        park = self._unpark(session)
        if park is not None:
            end_park(
                park, exc or TransactionAborted(f"{session.name}: {reason}")
            )
        now = self.now()
        job = session.job
        job.workspace.discard()
        session.abort_reason = reason
        self.history.record_abort(job.name, now)
        self.stats.record_abort(job.base_priority, forced=forced)
        self._finish(session, SessionState.ABORTED)

    def _finish(self, session: Session, state: SessionState) -> None:
        """The terminal transition commit and abort share: release every
        lock, leave every graph and registry, tell the listeners.

        Past this point nothing in the core names the session: a live
        transaction reads installed versions, never a finished one's
        workspace, and every structure that could name the job (lock
        table, wait-for graph, kernel slot, constraint graph, parks)
        has just forgotten it.  Its history rows stay.
        """
        job = session.job
        self.table.release_all(job)
        self._note_release_churn(job)
        self.waits.forget(job)
        self.kernel.retire(job)
        session.state = state
        self._committing.pop(job, None)
        del self._sessions[session.id]
        self.constraints.drop(job)
        self._notify_churn(
            "finish" if state is SessionState.COMMITTED else "abort", job
        )
        del self._by_job[job]
        self._recompute_priorities()

    def _is_service_cycle(self, cycle: Tuple[Job, ...]) -> bool:
        """True when the cycle runs through a service-made park (guard,
        fence, gate), which Theorem 2 does not cover: see
        :attr:`ParkKind.service_made`."""
        return any(
            self.parks[self._by_job[job]].kind.service_made for job in cycle
        )

    def _check_deadlock(self) -> None:
        """Resolve, or report, the wait-for cycles the latest edges closed.

        A cycle through a service-made park costs its lowest-priority
        member; a pure lock cycle is re-decided and, if it survives,
        raised as an :class:`InvariantViolation`.
        """
        while True:
            cycle = self.waits.find_new_cycle()
            if cycle is None:
                return
            if self._is_service_cycle(cycle):
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
        changed = self.waits.recompute_priorities(self._by_job)
        if not changed:
            return
        if len(changed) > 1:
            # Oldest session first: session ids are issued in order.
            by_job = self._by_job
            changed.sort(key=lambda job: by_job[job].id)
        for listener in self.priority_listeners:
            for job in changed:
                listener(job)
        self._churn_priorities.update(changed)
