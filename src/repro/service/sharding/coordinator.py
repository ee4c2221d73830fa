"""The shard coordinator: routing, span tracking, and the global gate.

A :class:`ShardedLockManager` owns N fully independent
:class:`~repro.service.manager.LockManager` shards — each with its own
lock table, wait-for graph, protocol instance (so ceilings and
inheritance are *per shard*, DPCP-p-style), database partition, and
history — plus the coordinator state that stitches them back into one
serializable service:

* **Routing.**  A :class:`~repro.service.sharding.partitioner.Partitioner`
  maps every item id to its owning shard; ``read``/``write`` forward to a
  lazily-opened *leg* session there.  All legs of one global session
  share the same pinned instance number, so every shard knows the
  transaction by the same name (``"T2#7"``) and the merged history is
  coherent.
* **Shard-span.**  Access sets are static (ceilings require it), so the
  span — the set of shards a session may touch — is known at ``begin``.
  Single-shard ("local") sessions take the fast path: their commit is
  delegated wholesale to the home shard, whose local commit gate is
  provably sufficient (every direct ≺-constraint involving a session is
  recorded on a shard where it holds locks, i.e. its home).  Multi-shard
  ("global") sessions pay for coordination.
* **Global commit gate.**  Before a cross-shard commit installs
  anything, the coordinator parks the committer until every live
  predecessor on the merged, session-level constraint graph has
  finished.  The graph is maintained *incrementally*: every shard
  publishes churn notifications (``LockManager.churn_listeners``), and
  an LC3/LC4 constraint record adds a session-level edge the moment the
  shard records it, while a global terminal removes the session's node —
  no per-wait rebuild over the shards' own graphs.  The install
  loop that follows contains no ``await`` until the last shard's install
  lands — per-shard local gates are empty by then (their constraints are
  a subset of the merged ones), so a multi-shard commit is atomic on the
  event loop and no concurrent reader can observe a partially-installed
  transaction.
* **Global order guard.**  A read is held back while any live
  *transitive* predecessor on the merged graph — beyond those the owning
  shard can see locally — declares the item in its write set.  On a
  1-shard deployment the remote remainder is empty by construction, so
  the sharded service is decision-equivalent to the unsharded manager
  (the differential battery in ``tests/test_sharding_equivalence.py``
  pins this).
* **Cross-shard deadlock detection.**  Shard-local cycles are the
  shard's own business (same rules as the unsharded manager), but a
  cycle may close *across* shards — through coordinator gate/guard waits
  or through lock waits on two different shards (the per-shard ceilings
  cannot see each other, so the paper's deadlock-freedom theorem does
  not survive partitioning; ``docs/SHARDING.md`` discusses this
  honestly).  A cycle needs a *new* wait edge to close, so the check is
  event-driven: shard ``"wait"`` notifications and coordinator parks
  schedule one coalesced detection pass per event-loop tick, which
  builds the session-level union of all shard wait-for graphs plus the
  coordinator waits and resolves any cycle not attributable to a single
  shard by aborting its lowest-priority member.

Everything is notification-driven, with no timer: shard-side leg
aborts cascade to their global session synchronously from the shard's
``"abort"`` churn event, predecessor terminals wake exactly the
gate/guard waiters indexed on them, and deadlines are enforced as wait
timeouts through the lock manager's
:func:`~repro.service.manager.wait_firm`.
"""

from __future__ import annotations

import asyncio
import time
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.engine.job import Job
from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    ServiceError,
    SessionStateError,
    SpecificationError,
    TransactionAborted,
)
from repro.model.spec import TaskSet, TransactionSpec
from repro.service.constraints import ConstraintGraph
from repro.service.core import (
    ServiceConfig,
    Session,
    SessionState,
    check_served,
)
from repro.service.eager import eager_start
from repro.service.manager import LockManager, wait_firm
from repro.service.park import Park, ParkKind
from repro.service.sharding.partitioner import Partitioner, make_partitioner
from repro.service.stats import ServiceStats, ShardingStats

#: History-row sort rank: reads before installs before outcomes at equal
#: timestamps.  Serialization-graph edges depend only on per-item version
#: sequence numbers, so this rank only keeps the merged log readable.
_HISTORY_RANK = {"read": 0, "install": 1, "commit": 2, "abort": 2}


class GlobalSession:
    """One live transaction as the coordinator sees it.

    The coordinator-side twin of :class:`~repro.service.manager.Session`:
    it has no job of its own — instead it owns one *leg* session per
    touched shard, all running under the same pinned instance name.
    """

    __slots__ = ("id", "spec", "instance", "state", "deadline", "opened_at",
                 "abort_reason", "legs", "span", "in_flight")

    def __init__(self, session_id: int, spec: TransactionSpec, instance: int,
                 opened_at: float) -> None:
        self.id = session_id
        self.spec = spec
        self.instance = instance
        self.state = SessionState.ACTIVE
        #: Absolute deadline on the service clock (coordinator-enforced;
        #: legs run deadline-free so no shard can half-abort a commit).
        self.deadline: Optional[float] = None
        self.opened_at = opened_at
        self.abort_reason = ""
        #: shard id -> leg session, opened lazily on first touch.
        self.legs: Dict[int, Session] = {}
        #: Shards the declared access set may touch (static, see begin).
        self.span: FrozenSet[int] = frozenset()
        #: One in-flight operation per session, coordinator-enforced.
        self.in_flight = False

    @property
    def name(self) -> str:
        """The instance name every leg shares (``"T2#7"``)."""
        return f"{self.spec.name}#{self.instance}"

    @property
    def priority(self) -> int:
        """The transaction type's base priority."""
        return self.spec.priority

    @property
    def scope(self) -> str:
        """``"local"`` (single-shard span, fast path) or ``"global"``."""
        return "local" if len(self.span) <= 1 else "global"


class ShardedLockManager:
    """Partitioned lock-manager service behind the unsharded interface.

    Exposes the same surface as :class:`LockManager` (``begin`` /
    ``read`` / ``write`` / ``commit`` / ``abort`` / ``shutdown`` plus the
    introspection documents), so the wire layer, the TCP server, and the
    load generator drive it unchanged.

    Args:
        catalog: the registered transaction types (shared by all shards —
            ceilings are static information, and a shard computes its
            ceilings only from the locks it actually sees).
        protocol: a protocol name from
            :data:`~repro.service.manager.SERVED_PROTOCOLS`; each shard
            builds its own instance (protocol objects hold per-shard
            lock-table bindings, so a shared instance cannot be correct).
        config: coordinator-level :class:`ServiceConfig`; admission
            control and default deadlines apply globally, never per
            shard.
        shards: number of partitions (>= 1).
        partitioner: scheme name (``"hash"`` / ``"range"``) or a prebuilt
            :class:`Partitioner`.
    """

    def __init__(
        self,
        catalog: TaskSet,
        protocol: str = "pcp-da",
        config: Optional[ServiceConfig] = None,
        *,
        shards: int = 2,
        partitioner: Union[str, Partitioner] = "hash",
        shard_managers: Optional[Sequence[Any]] = None,
    ) -> None:
        check_served(protocol)
        self.catalog = catalog
        self.config = config or ServiceConfig()
        items = sorted(catalog.items)
        if isinstance(partitioner, str):
            partitioner = make_partitioner(partitioner, shards, items)
        elif partitioner.shards != shards:
            raise SpecificationError(
                f"partitioner covers {partitioner.shards} shard(s), "
                f"manager has {shards}"
            )
        self.partitioner = partitioner
        #: item -> shard, precomputed for every catalog item: routing sits
        #: on the per-operation hot path and the mapping is static.
        self._shard_of: Dict[str, int] = {
            item: partitioner.shard_of(item) for item in items
        }
        #: transaction name -> shard span; static by the same argument
        #: that makes the ceilings static (declared access sets).
        self._span_cache: Dict[str, FrozenSet[int]] = {}
        if shard_managers is not None:
            # Injected shard surfaces — RemoteShardProxy instances for a
            # multi-process deployment, or pre-built managers in tests.
            if len(shard_managers) != shards:
                raise SpecificationError(
                    f"{len(shard_managers)} shard manager(s) injected, "
                    f"deployment declares {shards}"
                )
            self.shards = tuple(shard_managers)
        else:
            self.shards = tuple(
                LockManager(catalog, protocol) for _ in range(shards)
            )
        #: True when any shard lives behind a process boundary: flips
        #: ``stats_document`` / ``history_events`` to the async fetch
        #: path (the wire layer awaits either shape).
        self._remote = any(
            getattr(shard, "is_remote", False) for shard in self.shards
        )
        # One service clock for the whole deployment: merged histories
        # and latency figures must be comparable across shards.  A
        # supervisor overrides ``_t0`` afterwards with the epoch it
        # already handed the shard-host processes.
        self._t0 = time.monotonic()
        for shard in self.shards:
            shard._t0 = self._t0
        self.stats = ServiceStats()
        self.sharding_stats = ShardingStats()

        self._sessions: Dict[int, GlobalSession] = {}
        self._live: Dict[GlobalSession, None] = {}  # insertion-ordered set
        #: leg job -> owning global session (constraint/wait translation).
        self._job_sessions: Dict[Job, GlobalSession] = {}
        #: The registry of coordinator-level parks (global commit gate /
        #: global order guard); a leg's lock wait is its shard's park.
        self.parks: Dict[GlobalSession, Park] = {}
        #: parked session -> the future its ``_await_remote`` sleeps on.
        self._wakers: Dict[GlobalSession, "asyncio.Future[None]"] = {}
        #: blocker session -> waiters parked on it (terminal wake index).
        self._wake_index: Dict[GlobalSession, Set[GlobalSession]] = {}
        #: The incrementally maintained session-level constraint graph,
        #: mirrored from shard LC3/LC4 records via churn notifications.
        #: A session's node is dropped wholesale at its global terminal —
        #: exactly when its legs' shard-side edges are dropped.
        self.constraints = ConstraintGraph()
        #: Coalescing flag: at most one deadlock pass per loop tick.
        self._deadlock_check_scheduled = False
        #: (kind, instance name, time) terminal rows for the merged history.
        self._outcomes: List[Tuple[str, str, float]] = []
        self._instances: Dict[str, int] = {}
        self._next_session_id = 0
        self._closed = False
        #: Registered decision listeners, kept so a replacement shard
        #: (crash restart) can be re-subscribed to all of them.
        self._decision_listeners: List[Callable] = []
        for index, shard in enumerate(self.shards):
            self._attach_shard_listeners(index, shard)

    def _attach_shard_listeners(self, index: int, shard: Any) -> None:
        """Subscribe the coordinator to one shard's churn stream."""
        shard.churn_listeners.append(
            lambda kind, job, other, _shard=index: self._on_shard_churn(
                _shard, kind, job, other
            )
        )

    # ------------------------------------------------------------------
    # Clock and identity
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Seconds since the deployment started (shared service clock)."""
        return time.monotonic() - self._t0

    def _route(self, item: str) -> int:
        """Owning shard of ``item`` (memoized over the partitioner)."""
        shard = self._shard_of.get(item)
        if shard is None:
            shard = self.partitioner.shard_of(item)
            self._shard_of[item] = shard
        return shard

    @property
    def protocol(self):
        """The protocol instance of shard 0 (all shards run the same one)."""
        return self.shards[0].protocol

    @property
    def shard_count(self) -> int:
        """Number of partitions in this deployment."""
        return len(self.shards)

    def add_decision_listener(self, listener) -> None:
        """Subscribe ``listener`` to every shard's lock decisions.

        The callback receives each :class:`repro.trace.recorder.LockEvent`
        at the moment a shard records it, so a single listener observes
        the deployment-wide decision sequence in true global order —
        per-shard traces alone cannot reconstruct the interleaving.  Used
        by the parity harness (:mod:`repro.verify.parity`).
        """
        self._decision_listeners.append(listener)
        for shard in self.shards:
            shard.add_decision_listener(listener)

    # ------------------------------------------------------------------
    # Session lifecycle
    # ------------------------------------------------------------------
    async def begin(
        self, transaction: str, *, deadline_s: Optional[float] = None
    ) -> GlobalSession:
        """Open a global session for one instance of ``transaction``.

        The shard-span is computed here, from the declared access set —
        it is static by the same argument that makes ceilings static.
        No leg is opened yet; the first touch of a shard opens one.
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
        instance = self._instances.get(transaction, 0)
        self._instances[transaction] = instance + 1
        session = GlobalSession(self._next_session_id, spec, instance, now)
        self._next_session_id += 1
        relative = (
            deadline_s if deadline_s is not None
            else self.config.default_deadline_s
        )
        if relative is not None:
            session.deadline = now + relative
        span = self._span_cache.get(transaction)
        if span is None:
            span = frozenset(self._route(item) for item in spec.access_set)
            self._span_cache[transaction] = span
        session.span = span
        self._sessions[session.id] = session
        self._live[session] = None
        self.stats.sessions_started += 1
        if session.scope == "local":
            self.sharding_stats.local_sessions += 1
        else:
            self.sharding_stats.cross_shard_sessions += 1
        return session

    def session(self, session_id: int) -> GlobalSession:
        """Look up a global session by id (for the wire layer)."""
        try:
            return self._sessions[session_id]
        except KeyError:
            raise SessionStateError(f"unknown session {session_id}") from None

    async def read(self, session: GlobalSession, item: str) -> Any:
        """Read ``item`` through the owning shard's leg.

        The merged-graph order guard runs first: predecessors the owning
        shard cannot see locally (they hold no constraint edge there)
        must finish before this read may observe the item they will
        write.  The shard's own guard then covers the local remainder.
        """
        self._pre_op(session)
        shard_id = self._route(item)
        session.in_flight = True
        try:
            await self._await_remote(
                session, ParkKind.ORDER_GUARD,
                lambda: self._remote_guard_blockers(session, shard_id, item),
            )
            leg = await self._ensure_leg(session, shard_id)
            return await self._forward(
                session, self.shards[shard_id].read(leg, item)
            )
        finally:
            session.in_flight = False

    async def write(self, session: GlobalSession, item: str, value: Any) -> None:
        """Buffer a deferred write on the owning shard's leg."""
        self._pre_op(session)
        shard_id = self._route(item)
        session.in_flight = True
        try:
            leg = await self._ensure_leg(session, shard_id)
            await self._forward(
                session, self.shards[shard_id].write(leg, item, value)
            )
        finally:
            session.in_flight = False

    async def commit(self, session: GlobalSession) -> Dict[str, Any]:
        """Commit across every touched shard; returns the merged summary.

        Single-leg sessions delegate to their home shard (the local gate
        is sufficient — every direct constraint involving this session
        lives where it holds locks).  Cross-shard sessions park at the
        global gate until the merged predecessor set drains, then install
        leg by leg with no intervening ``await`` — atomic on the loop.
        """
        self._pre_op(session)
        session.in_flight = True
        try:
            legs = {k: session.legs[k] for k in sorted(session.legs)}
            if len(legs) <= 1:
                if legs:
                    ((shard_id, leg),) = legs.items()
                    summary = await self._forward(
                        session, self.shards[shard_id].commit(leg)
                    )
                else:
                    summary = {"installed": [], "blocking_s": 0.0}
                now = self.now()
                self._finish_global(session, now)
                summary["latency_s"] = now - session.opened_at
                summary["shards"] = list(legs)
                return summary

            while True:
                await self._await_remote(
                    session, ParkKind.COMMIT_GATE,
                    lambda: self._gate_blockers(session),
                )
                if await self._prepare_legs(session, legs):
                    break
            # Install section.  In-process there is no await between the
            # gate check and the last install — each leg commit's local
            # gate is empty (its constraints are a subset of the merged
            # set just drained), so awaiting it never yields to the
            # loop.  Over the wire each leg commit is a round-trip, and
            # atomicity comes from the fences instead: every leg is
            # fenced, so no reader can pass a write lock and record a
            # new ``reader ≺ committer`` constraint between the installs
            # (write conflicts were already held off by the locks).
            installed: List[str] = []
            blocking = 0.0
            deferred_cancel: List[BaseException] = []
            try:
                for shard_id, leg in legs.items():
                    summary = await self._install_leg(
                        self.shards[shard_id].commit(leg), deferred_cancel
                    )
                    installed.extend(summary["installed"])
                    blocking += summary["blocking_s"]
            except BaseException as exc:
                # In-process this is unreachable by construction (legs
                # are ACTIVE and their gates empty); remotely a shard
                # host can die mid-install.  Either way, fail loudly but
                # do not leave sibling legs holding locks.
                if session.state.live:
                    self._abort_global(
                        session, f"commit failure: {exc}", forced=True
                    )
                raise
            now = self.now()
            self._finish_global(session, now)
            if deferred_cancel:
                # The client went away mid-install; the commit point had
                # passed, so the installs ran to completion first.
                raise deferred_cancel[0]
            return {
                "installed": sorted(installed),
                "latency_s": now - session.opened_at,
                "blocking_s": blocking,
                "shards": list(legs),
            }
        finally:
            session.in_flight = False

    async def _prepare_legs(
        self, session: GlobalSession, legs: Dict[int, Session]
    ) -> bool:
        """Fence every leg for install; True when the gate stayed empty.

        In-process, :meth:`LockManager.prepare_commit` is synchronous,
        so this adds only inert state flips inside the atomic section.
        Over the wire each fence is a round-trip, and a reader may have
        slipped past a write lock (recording a new ``reader ≺
        committer`` constraint) before its shard's fence landed — but
        any such constraint frame travelled the same connection *before*
        the fence acknowledgement, so by the time every prepare has
        resolved the merged graph is complete: re-checking the gate here
        is sound.  Non-empty means back off (drop the fences, park at
        the gate again); the parked readers re-pass the write locks as
        if the fences never existed.
        """
        prepared: List[Tuple[int, Session]] = []
        try:
            for shard_id, leg in legs.items():
                result = self.shards[shard_id].prepare_commit(leg)
                if asyncio.iscoroutine(result):
                    await self._forward(session, result)
                prepared.append((shard_id, leg))
        except BaseException:
            self._unprepare_legs(prepared)
            raise
        if not self._gate_blockers(session):
            return True
        self._unprepare_legs(prepared)
        return False

    def _unprepare_legs(self, prepared: List[Tuple[int, Session]]) -> None:
        """Drop the fences of still-live legs (sync both ways: the proxy
        posts fire-and-forget)."""
        for shard_id, leg in prepared:
            if leg.state.live:
                self.shards[shard_id].unprepare_commit(leg)

    async def _install_leg(
        self, coro, deferred_cancel: List[BaseException]
    ) -> Any:
        """Run one leg commit to completion, deferring cancellation.

        Past the commit point (every leg fenced, gate empty) a client
        cancellation must not split the install across shards: the leg
        commit runs shielded to completion and the cancellation is
        collected for the caller to re-raise after the last install.
        In-process the coroutine completes on the eager first step, so
        this is exactly the old ``await shard.commit(leg)``.
        """
        done, outcome = eager_start(coro)
        if done:
            return outcome
        task = outcome
        while True:
            try:
                return await asyncio.shield(task)
            except asyncio.CancelledError as exc:
                if task.cancelled():
                    raise
                deferred_cancel.append(exc)

    async def abort(self, session: GlobalSession, reason: str = "client") -> None:
        """Client-requested abort: tear down every leg, discard buffers."""
        if not session.state.live:
            raise SessionStateError(
                f"{session.name}: cannot abort a {session.state.value} session"
            )
        if session.in_flight or session.state is SessionState.WAITING:
            raise SessionStateError(
                f"{session.name}: another operation is waiting for a lock"
            )
        self._abort_global(session, reason, forced=False)

    def force_abort(self, session: GlobalSession, reason: str) -> None:
        """Service-initiated abort of a global session, parked or not.

        Same contract as :meth:`LockManager.force_abort`: synchronous
        and idempotent.  The server uses it for sessions whose
        connection disappeared while another one had them parked.
        """
        self._abort_global(session, reason, forced=True)

    async def shutdown(self) -> None:
        """Abort every live session, shut every shard down, refuse new work."""
        if self._closed:
            return
        self._closed = True
        for session in list(self._live):
            self._abort_global(
                session, "shutdown", forced=True,
                exc=TransactionAborted("service shutting down"),
            )
        for shard in self.shards:
            await shard.shutdown()

    # ------------------------------------------------------------------
    # Shard-process failure (supervisor hooks)
    # ------------------------------------------------------------------
    def on_shard_lost(self, shard_id: int, reason: str) -> None:
        """A shard process died: abort every session touching it.

        The supervisor calls this when a shard-host exits unexpectedly.
        Any transaction with a leg on the dead shard — or whose declared
        span includes it, so a future operation would route there — is
        aborted; its legs on *surviving* shards release their locks
        normally.  Mirror legs on the dead shard are flipped terminally
        first so the global abort does not try to RPC a corpse.
        """
        dead = self.shards[shard_id]
        drop = getattr(dead, "mark_lost", None)
        if drop is not None:
            drop(reason)
        failure = TransactionAborted(
            f"shard {shard_id} lost: {reason}"
        )
        for session in list(self._live):
            touches = (
                shard_id in session.legs or shard_id in session.span
            )
            if not touches:
                continue
            self.sharding_stats.cascade_aborts += 1
            self._abort_global(
                session, f"shard {shard_id} lost: {reason}",
                forced=True, exc=failure,
            )

    def replace_shard(self, shard_id: int, shard: Any) -> None:
        """Swap in a restarted shard (supervisor crash-restart policy).

        ``on_shard_lost`` must already have run for ``shard_id`` — the
        new shard starts empty, so no live session may still reference
        the old one.  The replacement joins the shared service clock and
        is re-subscribed to churn and every registered decision listener.
        """
        shards = list(self.shards)
        shards[shard_id] = shard
        self.shards = tuple(shards)
        shard._t0 = self._t0
        self._attach_shard_listeners(shard_id, shard)
        for listener in self._decision_listeners:
            shard.add_decision_listener(listener)
        self._remote = any(
            getattr(s, "is_remote", False) for s in self.shards
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def live_sessions(self) -> Tuple[GlobalSession, ...]:
        """Currently live global sessions, oldest first."""
        return tuple(self._live)

    def stats_document(self) -> Dict[str, Any]:
        """The ``stats`` payload: merged shard stats + coordinator view.

        Lock-level signals (grants, denials, waits, priority bands) are
        the union of the shards; session-level scalars (sessions,
        commits, aborts, end-to-end commit latency) come from the
        coordinator, which is the only place a cross-shard transaction
        counts once.  ``shards`` carries one summary entry per shard
        (including its latency histograms) and ``coordinator`` the
        sharding counters — both ignored by
        :meth:`ServiceStats.from_dict`, so unsharded consumers read the
        document unchanged.

        With remote shards this returns a *coroutine* (the shard
        documents are wire fetches); the wire layer awaits either shape,
        and in-process embedders keep the synchronous contract.
        """
        if self._remote:
            return self._stats_document_remote()
        return self._assemble_stats(
            [shard.stats for shard in self.shards],
            shard_waiting=sum(len(shard.parks) for shard in self.shards),
            ceilings=[shard.system_ceiling() for shard in self.shards],
        )

    async def _stats_document_remote(self) -> Dict[str, Any]:
        """Fetch per-host stats documents and assemble the merged view."""
        docs = await asyncio.gather(
            *(shard.fetch_stats_document() for shard in self.shards)
        )
        doc = self._assemble_stats(
            [ServiceStats.from_dict(shard_doc) for shard_doc in docs],
            shard_waiting=sum(
                shard_doc.get("waiting_sessions", 0) for shard_doc in docs
            ),
            ceilings=[shard_doc.get("system_ceiling") for shard_doc in docs],
        )
        doc["shard_procs"] = len(self.shards)
        doc["deployment"] = "multiprocess"
        return doc

    def _assemble_stats(
        self,
        shard_stats: List[ServiceStats],
        *,
        shard_waiting: int,
        ceilings: List[Optional[int]],
    ) -> Dict[str, Any]:
        merged = ServiceStats()
        for stats in shard_stats:
            merged.merge(stats)
        # Coordinator gate/guard parks are deliberately NOT merged into
        # lock_wait: they live in their own histograms on the
        # ``coordinator`` entry (ShardingStats.gate_wait / guard_wait),
        # so shard lock waits stay attributable.
        doc = merged.to_dict()
        for scalar in (
            "sessions_started", "sessions_rejected", "commits",
            "client_aborts", "forced_aborts", "deadline_aborts", "requests",
        ):
            doc[scalar] = getattr(self.stats, scalar)
        doc["commit_latency"] = self.stats.commit_latency.to_dict()
        doc["protocol"] = self.protocol.name
        doc["uptime_s"] = self.now()
        doc["live_sessions"] = len(self._live)
        doc["waiting_sessions"] = shard_waiting + len(self.parks)
        known = [c for c in ceilings if c is not None]
        doc["system_ceiling"] = max(known) if known else None
        assignment = self.partitioner.assignment(self.catalog.items)
        doc["shard_count"] = self.shard_count
        doc["partitioner"] = self.partitioner.name
        doc["shards"] = [
            {
                "shard": index,
                "items": len(assignment[index]),
                "sessions": stats.sessions_started,
                "grants": stats.grants,
                "denials": stats.denials,
                "commits": stats.commits,
                "forced_aborts": stats.forced_aborts,
                "deadlocks": stats.deadlocks,
                "commit_latency": stats.commit_latency.to_dict(),
                "lock_wait": stats.lock_wait.to_dict(),
            }
            for index, stats in enumerate(shard_stats)
        ]
        doc["coordinator"] = self.sharding_stats.to_dict()
        return doc

    def topology_document(self) -> Dict[str, Any]:
        """The ``topology`` payload: partitioning scheme and assignment."""
        assignment = self.partitioner.assignment(self.catalog.items)
        return {
            "shards": self.shard_count,
            "partitioner": self.partitioner.name,
            "scheme": self.partitioner.describe(),
            "assignment": {
                str(shard): items for shard, items in assignment.items()
            },
        }

    def history_events(self) -> List[Dict[str, Any]]:
        """The merged observable history as JSON-friendly rows.

        Data rows (reads, installs) come from the shard that executed
        them; terminal rows (commit, abort) come from the coordinator's
        outcome log — exactly one per global session, replacing the
        per-leg terminals each shard recorded.  Rows are ordered by
        service-clock time (one clock for all shards); the
        serializability oracle depends only on per-item version
        sequences, which shard-disjoint item spaces keep consistent, so
        the merged log replays through ``check_serializable`` unchanged.

        With remote shards this returns a *coroutine* (the per-host rows
        are wire fetches); the wire layer awaits either shape.
        """
        if self._remote:
            return self._history_events_remote()
        return self._assemble_history(
            [row for shard in self.shards for row in shard.history_events()]
        )

    async def _history_events_remote(self) -> List[Dict[str, Any]]:
        """Fetch each host's history rows and assemble the merged view."""
        fetched = await asyncio.gather(
            *(shard.fetch_history_events() for shard in self.shards)
        )
        return self._assemble_history(
            [row for rows in fetched for row in rows]
        )

    def _assemble_history(
        self, data_rows: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        rows: List[Tuple[float, int, Dict[str, Any]]] = []
        for row in data_rows:
            kind = row["kind"]
            if kind not in ("read", "install"):
                continue  # per-leg terminals: superseded globally
            rows.append((row["time"], _HISTORY_RANK[kind], row))
        for kind, name, when in self._outcomes:
            rows.append((when, _HISTORY_RANK[kind], {
                "kind": kind,
                "job": name,
                "item": None,
                "version_seq": None,
                "time": when,
            }))
        rows.sort(key=lambda entry: (entry[0], entry[1]))
        return [row for _, _, row in rows]

    def catalog_document(self) -> List[Dict[str, Any]]:
        """The registered transaction types (identical on every shard)."""
        return self.shards[0].catalog_document()

    # ------------------------------------------------------------------
    # Operation plumbing
    # ------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._closed:
            raise ServiceError("lock manager is shut down")

    def _pre_op(self, session: GlobalSession) -> None:
        """Shared entry checks: liveness, one-in-flight, deadline."""
        self._ensure_open()
        if session.in_flight or session.state is SessionState.WAITING:
            raise SessionStateError(
                f"{session.name}: a previous operation is still waiting "
                "for a lock (one in-flight operation per session)"
            )
        if not session.state.live:
            raise SessionStateError(
                f"{session.name}: session already {session.state.value}"
            )
        if session.deadline is not None and self.now() > session.deadline:
            self._expire(session, "before the operation")

    async def _ensure_leg(
        self, session: GlobalSession, shard_id: int
    ) -> Session:
        """The session's leg on ``shard_id``, opened on first touch.

        ``LockManager.begin`` never awaits internally, so awaiting it
        here runs it to completion without yielding to the loop — leg
        creation is atomic with the operation that needed it.  Legs run
        uncapped and deadline-free: admission and deadlines are
        coordinator concerns.
        """
        leg = session.legs.get(shard_id)
        if leg is not None:
            return leg
        # Tie-breakers (grant-queue FIFO, victim choice) must follow the
        # *global* begin order, not the lazy leg-creation order, or two
        # equal-priority sessions could be served in a different order
        # than the unsharded manager would serve them: the leg's job
        # takes the global session id as its ``seq``.
        leg = await self.shards[shard_id].begin(
            session.spec.name, instance=session.instance, seq=session.id
        )
        session.legs[shard_id] = leg
        self._job_sessions[leg.job] = session
        return leg

    # ------------------------------------------------------------------
    # Shard churn notifications (the event-driven core)
    # ------------------------------------------------------------------
    def _on_shard_churn(
        self, shard_id: int, kind: str, job: Job, other: Optional[Job]
    ) -> None:
        """One shard's synchronous churn callback.

        * ``"constraint"`` — the shard recorded ``job ≺ other`` (an
          LC3/LC4 read passed a write lock): mirror the edge on the
          session-level graph, the incremental replacement for rebuilding
          the merged registries at every gate/guard evaluation.
        * ``"abort"`` — a leg died shard-side (a service-made cycle's
          victim, an invariant violation): cascade to its global session
          *now*, synchronously, exactly as the unsharded manager flips
          such sessions' states inside the operation.
        * ``"wait"`` — a wait edge was created or re-pointed: a cross-
          shard cycle can only close here, so schedule one coalesced
          deadlock pass.
        """
        if kind == "constraint":
            reader = self._job_sessions.get(job)
            writer = self._job_sessions.get(other)
            if reader is None or writer is None or reader is writer:
                return
            self.constraints.add(reader, writer)
        elif kind == "abort":
            session = self._job_sessions.get(job)
            if session is not None and session.state.live:
                reason = session.legs[shard_id].abort_reason or "abort"
                self.sharding_stats.cascade_aborts += 1
                self._abort_global(session, f"shard:{reason}", forced=True)
        elif kind == "wait":
            self._schedule_deadlock_check()

    def _schedule_deadlock_check(self) -> None:
        """Coalesce deadlock detection to one pass per event-loop tick.

        Every new wait edge schedules a pass; concurrent edges within
        one tick share it.  A 1-shard deployment skips entirely: no
        coordinator wait ever parks there and cross-shard cycles cannot
        exist, so the shard's own detector is complete.
        """
        if (
            self._deadlock_check_scheduled
            or self._closed
            or len(self.shards) == 1
        ):
            return
        try:
            loop = asyncio.get_running_loop()
        except RuntimeError:
            self._check_global_deadlock()
            return
        self._deadlock_check_scheduled = True
        loop.call_soon(self._run_deadlock_check)

    def _run_deadlock_check(self) -> None:
        self._deadlock_check_scheduled = False
        if not self._closed:
            self._check_global_deadlock()

    def _on_session_terminal(self, session: GlobalSession) -> None:
        """Shared terminal bookkeeping: drop the constraint node, wake
        exactly the gate/guard waiters whose predecessor sets shrink."""
        self.constraints.drop(session)
        waiters = self._wake_index.pop(session, None)
        if waiters:
            for waiter in tuple(waiters):
                self._wake(waiter)

    def _wake(self, session: GlobalSession) -> None:
        """End ``session``'s coordinator park, if it has one."""
        future = self._wakers.get(session)
        if future is not None and not future.done():
            future.set_result(None)

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    async def _forward(self, session: GlobalSession, coro) -> Any:
        """Await a shard operation under the session's deadline.

        The operation's first step runs *eagerly*, on the caller's
        stack: the overwhelmingly common shard op (an unblocked grant, a
        buffered write, an uncontended leg commit) finishes without ever
        suspending, so it never touches the event loop at all.  Without
        this, every forwarded op costs at least one loop tick — under an
        open-system arrival schedule that forced interleaving lets
        hundreds of later transactions start before earlier ones finish,
        and the resulting constraint pile-up is what collapsed
        multi-shard throughput.  Only an op that actually parks
        (lock wait, shard-side gate) is handed to a task.

        Shard churn arrives as synchronous notifications (a leg abort
        cascades to the global session from the shard's ``"abort"``
        event before the operation's error even propagates; over the
        wire the event frame precedes the response), so a parked
        operation's task is simply awaited through :func:`wait_firm`:
        the session's deadline bounds it and a cancellation (client
        disconnect) tears the global session down, mirroring the
        unsharded manager — either way the shard operation is cancelled
        first.
        """
        done, outcome = eager_start(coro)
        if done:
            return outcome
        return await wait_firm(
            outcome, session.deadline, self.now,
            lambda: self._expire(session, "during the operation"),
            lambda: self._cancel(session),
        )

    def _expire(self, session: GlobalSession, where: str) -> None:
        """The session's deadline passed ``where``: abort it, raise."""
        if session.state.live:
            self.stats.deadline_aborts += 1
            self._abort_global(session, "deadline", forced=True)
        raise DeadlineExceeded(
            f"{session.name}: deadline passed {where}"
        ) from None

    def _cancel(self, session: GlobalSession) -> None:
        """The client's task was cancelled mid-wait: abort the session."""
        if session.state.live:
            self._abort_global(session, "cancelled", forced=True)

    # ------------------------------------------------------------------
    # The global gate and guard
    # ------------------------------------------------------------------
    def _merged_preds(self, session: GlobalSession) -> Set[GlobalSession]:
        """Live sessions serialized before this one, on the merged graph.

        The memoised closure of the session-level graph, which mirrors
        every shard's constraint records via churn notifications: a
        session-level edge exists exactly while its shard-side edge does
        (both drop at the global terminal).  Callers must not mutate the
        returned set.
        """
        self.sharding_stats.constraint_merges += 1
        return self.constraints.preds(session)

    def _remote_guard_blockers(
        self, session: GlobalSession, shard_id: int, item: str
    ) -> Tuple[GlobalSession, ...]:
        """Predecessors that write ``item`` and are invisible locally.

        The owning shard's order guard already holds a read back for
        every predecessor in *its* transitive closure; the coordinator
        only has to cover the remainder visible on the merged graph.  On
        a 1-shard deployment the remainder is empty by construction —
        the guarantee behind decision-equivalence.
        """
        merged = self._merged_preds(session)
        if not merged:
            return ()
        local: Set[GlobalSession] = set()
        leg = session.legs.get(shard_id)
        if leg is not None and leg.state.live:
            shard = self.shards[shard_id]
            for pred_job in shard.constraints.preds(leg.job):
                pred = self._job_sessions.get(pred_job)
                if pred is not None:
                    local.add(pred)
        blockers = [
            pred for pred in merged
            if pred.state.live
            and item in pred.spec.write_set
            and pred not in local
        ]
        return tuple(sorted(blockers, key=lambda s: s.id))

    def _gate_blockers(
        self, session: GlobalSession
    ) -> Tuple[GlobalSession, ...]:
        """Live merged predecessors that must finish before this commit."""
        return tuple(sorted(
            (pred for pred in self._merged_preds(session)
             if pred.state.live),
            key=lambda s: s.id,
        ))

    async def _await_remote(
        self,
        session: GlobalSession,
        kind: ParkKind,
        blockers_fn: Callable[[], Tuple[GlobalSession, ...]],
    ) -> None:
        """Park until ``blockers_fn`` drains (event-driven wake-ups).

        The wait indexes itself on each blocker, so only a blocker's
        terminal transition wakes it — predecessors arriving *while*
        parked can only grow the set and never require a wake, and the
        re-evaluation after each wake picks them up.  Registers the wait
        for the cross-shard deadlock detector (one coalesced pass per
        park), checks liveness on every wake, and bounds every wait by
        the session's deadline (:func:`wait_firm`).  Returns
        synchronously once the blocker set is empty — callers rely on
        there being no trailing ``await``.
        """
        blockers = blockers_fn()
        if not blockers:
            return
        if kind is ParkKind.COMMIT_GATE:
            self.sharding_stats.gate_waits += 1
            park_hist = self.sharding_stats.gate_wait
        else:
            self.sharding_stats.guard_waits += 1
            park_hist = self.sharding_stats.guard_wait
        started = self.now()
        previous_state = session.state
        session.state = SessionState.WAITING
        loop = asyncio.get_running_loop()
        try:
            while blockers:
                future = self._wakers[session] = loop.create_future()
                self.parks[session] = Park(session, kind, blockers, started)
                for blocker in blockers:
                    self._wake_index.setdefault(blocker, set()).add(session)
                self._schedule_deadlock_check()
                try:
                    if session.state.live:
                        await wait_firm(
                            future, session.deadline, self.now,
                            lambda: self._expire(
                                session, f"at the {kind.value}"
                            ),
                            lambda: self._cancel(session),
                        )
                finally:
                    del self._wakers[session]
                    self.parks.pop(session, None)
                    for blocker in blockers:
                        waiters = self._wake_index.get(blocker)
                        if waiters is not None:
                            waiters.discard(session)
                            if not waiters:
                                self._wake_index.pop(blocker, None)
                if not session.state.live:
                    raise TransactionAborted(
                        f"{session.name}: "
                        f"{session.abort_reason or 'aborted'} "
                        f"(while parked at the {kind.value})"
                    )
                blockers = blockers_fn()
        finally:
            if session.state is SessionState.WAITING:
                session.state = previous_state
            elapsed = self.now() - started
            self.stats.record_wait(session.priority, elapsed)
            park_hist.record(elapsed)

    # ------------------------------------------------------------------
    # Terminal transitions
    # ------------------------------------------------------------------
    def _finish_global(self, session: GlobalSession, now: float) -> None:
        """Commit bookkeeping: outcome row, stats, wake-ups."""
        session.state = SessionState.COMMITTED
        self._live.pop(session, None)
        for leg in session.legs.values():
            self._job_sessions.pop(leg.job, None)
        self._outcomes.append(("commit", session.name, now))
        self.stats.record_commit(session.priority, now - session.opened_at)
        if len(session.legs) > 1:
            self.sharding_stats.cross_shard_commits += 1
        self._on_session_terminal(session)

    def _abort_global(
        self,
        session: GlobalSession,
        reason: str,
        *,
        forced: bool = True,
        exc: Optional[ServiceError] = None,
    ) -> None:
        """Tear a global session down: every live leg, then bookkeeping."""
        if not session.state.live:
            return
        session.state = SessionState.ABORTED
        session.abort_reason = reason
        self._live.pop(session, None)
        failure = exc or TransactionAborted(f"{session.name}: {reason}")
        for shard_id, leg in session.legs.items():
            if leg.state.live:
                self.shards[shard_id].force_abort(leg, reason, exc=failure)
            self._job_sessions.pop(leg.job, None)
        self._outcomes.append(("abort", session.name, self.now()))
        self.stats.record_abort(session.priority, forced=forced)
        self._on_session_terminal(session)
        # The victim itself may be parked at a gate/guard: wake it so the
        # park observes the abort.
        self._wake(session)

    # ------------------------------------------------------------------
    # Cross-shard deadlock detection
    # ------------------------------------------------------------------
    def _check_global_deadlock(self) -> None:
        """Find and resolve wait cycles spanning shards or the coordinator.

        Builds a session-level wait graph from every shard's wait-for
        edges plus the coordinator's parked gate/guard waits, each edge
        tagged with its sources.  A cycle whose edges are all
        attributable to one single shard is left to that shard's own
        detector (identical rules to the unsharded manager); any other
        cycle exists only because of partitioning, so it is resolved by
        aborting the lowest-base-priority member — the same policy the
        unsharded manager applies to service-level cycles.
        """
        edges: Dict[GlobalSession, Dict[GlobalSession, Set[Any]]] = {}
        for index, shard in enumerate(self.shards):
            for waiter_job in shard.waits.waiters():
                waiter = self._job_sessions.get(waiter_job)
                if waiter is None or not waiter.state.live:
                    continue
                for blocker_job in shard.waits.blockers_of(waiter_job):
                    blocker = self._job_sessions.get(blocker_job)
                    if (
                        blocker is None or blocker is waiter
                        or not blocker.state.live
                    ):
                        continue
                    edges.setdefault(waiter, {}).setdefault(
                        blocker, set()
                    ).add(index)
        for waiter, park in self.parks.items():
            if not waiter.state.live:
                continue
            for blocker in park.blockers:
                if blocker.state.live and blocker is not waiter:
                    edges.setdefault(waiter, {}).setdefault(
                        blocker, set()
                    ).add("coordinator")
        cycle = self._find_cycle(edges)
        if cycle is None:
            return
        pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
        for index in range(len(self.shards)):
            if all(index in edges[a][b] for a, b in pairs):
                return  # purely shard-local: that shard's own business
        self.sharding_stats.cross_shard_deadlocks += 1
        names = " -> ".join(s.name for s in cycle)
        victim = min(cycle, key=lambda s: (s.priority, -s.id))
        self._abort_global(
            victim, "deadlock", forced=True,
            exc=TransactionAborted(
                f"{victim.name} chosen as cross-shard deadlock victim "
                f"({names})"
            ),
        )

    @staticmethod
    def _find_cycle(
        edges: Dict[GlobalSession, Dict[GlobalSession, Set[Any]]]
    ) -> Optional[List[GlobalSession]]:
        """One cycle in the session wait graph, or ``None`` (iterative DFS)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[GlobalSession, int] = {}
        for root in sorted(edges, key=lambda s: s.id):
            if color.get(root, WHITE) is not WHITE:
                continue
            path: List[GlobalSession] = []
            stack: List[Tuple[GlobalSession, bool]] = [(root, False)]
            while stack:
                node, done = stack.pop()
                if done:
                    color[node] = BLACK
                    path.pop()
                    continue
                state = color.get(node, WHITE)
                if state is BLACK:
                    continue
                if state is GRAY:
                    continue
                color[node] = GRAY
                path.append(node)
                stack.append((node, True))
                for target in sorted(
                    edges.get(node, ()), key=lambda s: s.id
                ):
                    target_state = color.get(target, WHITE)
                    if target_state is GRAY:
                        start = path.index(target)
                        return path[start:]
                    if target_state is WHITE:
                        stack.append((target, False))
        return None
