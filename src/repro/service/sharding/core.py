"""The synchronous sharded core: routing, span tracking, the global gate.

A :class:`ShardedCore` owns N fully independent shards — each an
in-process :class:`~repro.service.core.LockCore` with its own lock table,
wait-for graph, protocol instance (so ceilings and inheritance are *per
shard*, DPCP-p-style), database partition and history, or a
:class:`~repro.service.sharding.procs.proxy.RemoteShardProxy` for a shard
in another process — plus the coordinator state that stitches them back
into one serializable service.  It is the counterpart of ``LockCore``:
no event loop, every operation one synchronous call that returns its
result or a :class:`~repro.service.park.Park`, called again with
``resume=park`` once the park has ended.

* **Routing.**  A :class:`~repro.service.sharding.partitioner.Partitioner`
  maps every catalog item to its owning shard, once, at construction;
  ``read``/``write`` go to a lazily-opened *leg* session there.  A
  request outside the session's declared access (or write) set is
  refused before it is routed, so it opens no leg.  All legs of one
  global session share the same pinned instance number, so every shard
  knows the transaction by the same name (``"T2#7"``) and the merged
  history is coherent.
* **Shard-span.**  Access sets are static (ceilings require it), so the
  span — the set of shards a session may touch — is known at ``begin``.
  Single-shard ("local") sessions take the fast path: their commit is
  delegated wholesale to the home shard, whose local commit gate is
  provably sufficient (every direct ≺-constraint involving a session is
  recorded on a shard where it holds locks, i.e. its home).  Multi-shard
  ("global") sessions pay for coordination.
* **Global commit gate.**  Before a cross-shard commit installs
  anything, the committer parks until every live predecessor on the
  merged, session-level constraint graph has finished.  The graph is
  maintained *incrementally* from the shards' churn notifications: an
  LC3/LC4 constraint record adds a session-level edge the moment the
  shard records it, and a global terminal removes the session's node.
  The install loop that follows is one synchronous call over in-process
  shards — per-shard local gates are empty by then (their constraints
  are a subset of the merged ones) — so no concurrent reader can observe
  a partially-installed transaction.  Over the wire every leg is fenced
  first (``prepare_commit``) and the gate re-checked.
* **Global order guard.**  A read is held back while any live
  *transitive* predecessor on the merged graph — beyond those the owning
  shard can see locally — declares the item in its write set.  On a
  1-shard deployment the remote remainder is empty by construction, so
  the sharded service is decision-equivalent to the unsharded manager
  (``tests/test_sharding_equivalence.py`` pins this).
* **Cross-shard deadlock detection.**  Shard-local cycles are the
  shard's own business, but a cycle may close *across* shards — through
  gate/guard parks or through lock waits on two different shards (the
  per-shard ceilings cannot see each other; ``docs/SHARDING.md``).  The
  coordinator keeps one session-level wait-for graph,
  :attr:`ShardedCore.waits`: every gate/guard park, and every leg's lock
  wait translated from its shard's graph on the shard's ``"wait"`` /
  ``"unwait"`` churn.  A cycle needs a new wait edge to close, and an
  edge is written only inside a core call — an operation or a teardown
  — or by a remote shard's ``wait`` frame, which the event loop
  applies.  The detection pass runs at the end of each, so a cycle is
  resolved before the call that closed it returns: it aborts the
  lowest-priority member of any cycle not attributable to a single
  shard.

The gate and guard are parks in :attr:`ShardedCore.parks` whose edges
stand in the same graph, so a blocker's terminal ends exactly the parks
waiting on it; a leg's wait is the shard's own park, returned
unchanged.  An operation runs through the lock core's own driver
(:func:`~repro.service.core.operation`): a generator suspended at the
park it returned, so a resumed operation continues from the stage it
waited in and never re-runs a guard it already passed; the deadlock
pass is the end-of-call work of an operation and of a teardown alike.
Deadlines are enforced at operation entry and mid-wait by the adapter
(:class:`~repro.service.sharding.coordinator.ShardedLockManager`)
through :meth:`ShardedCore.expire`.
"""

from __future__ import annotations

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

from repro.engine.inheritance import WaitForGraph
from repro.engine.job import Job
from repro.exceptions import (
    ServiceError,
    SpecificationError,
    TransactionAborted,
)
from repro.model.spec import LockMode, TaskSet, TransactionSpec
from repro.service.constraints import ConstraintGraph
from repro.service.core import (
    LockCore,
    ServiceConfig,
    Session,
    SessionRecord,
    SessionState,
    SessionTable,
    Steps,
    check_access,
    operation,
)
from repro.service.park import Park, ParkKind, end_park
from repro.service.sharding.partitioner import Partitioner, make_partitioner
from repro.service.stats import ServiceStats, ShardingStats

#: History-row sort rank: reads before installs before outcomes at equal
#: timestamps.  Serialization-graph edges depend only on per-item version
#: sequence numbers, so this rank only keeps the merged log readable.
_HISTORY_RANK = {"read": 0, "install": 1, "commit": 2, "abort": 2}

class GlobalSession(SessionRecord):
    """One live transaction as the coordinator sees it.

    The coordinator-side twin of :class:`~repro.service.core.Session`:
    it has no job of its own — instead it owns one *leg* session per
    touched shard, all running under the same pinned instance name.  Its
    deadline is the coordinator's: legs run deadline-free, so no shard
    can half-abort a commit.
    """

    __slots__ = ("spec", "instance", "legs", "span", "place")

    def __init__(self, session_id: int, spec: TransactionSpec, instance: int,
                 span: FrozenSet[int], opened_at: float) -> None:
        SessionRecord.__init__(self, session_id, opened_at)
        self.spec = spec
        self.instance = instance
        #: shard id -> leg session, opened lazily on first touch.
        self.legs: Dict[int, Session] = {}
        #: Shards the declared access set may touch (static, see begin).
        self.span = span
        #: Where its latest wait is: a shard index for a leg's lock wait,
        #: ``None`` for a gate/guard park.  One operation in flight means
        #: one place at a time.
        self.place: Optional[int] = None

    @property
    def name(self) -> str:
        """The instance name every leg shares (``"T2#7"``)."""
        return f"{self.spec.name}#{self.instance}"

    @property
    def seq(self) -> int:
        """The global begin order: the ``seq`` every leg's job carries,
        and the deterministic order key of the engine's cycle search."""
        return self.id

    @property
    def priority(self) -> int:
        """The transaction type's base priority."""
        return self.spec.priority

    @property
    def scope(self) -> str:
        """``"local"`` (single-shard span, fast path) or ``"global"``."""
        return "local" if len(self.span) <= 1 else "global"


class ShardedCore(SessionTable):
    """Partitioned lock service behind the unsharded core's interface.

    Args:
        catalog: the registered transaction types (shared by all shards —
            ceilings are static information, and a shard computes its
            ceilings only from the locks it actually sees).
        protocol: a protocol name from
            :data:`~repro.service.core.SERVED_PROTOCOLS`; each shard
            builds its own instance (protocol objects hold per-shard
            lock-table bindings, so a shared instance cannot be correct).
        config: coordinator-level :class:`ServiceConfig`; admission
            control and default deadlines apply globally, never per
            shard.
        shards: number of partitions (>= 1).
        partitioner: scheme name (``"hash"`` / ``"range"``) or a prebuilt
            :class:`Partitioner`.
        shard_managers: prebuilt shard surfaces instead of in-process
            cores — ``RemoteShardProxy`` instances for a multi-process
            deployment, or cores built by a test.
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
        super().__init__(catalog, protocol, config)
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
        self._spans: Dict[str, FrozenSet[int]] = {
            spec.name: frozenset(self._shard_of[item]
                                 for item in spec.access_set)
            for spec in catalog
        }
        if shard_managers is not None:
            if len(shard_managers) != shards:
                raise SpecificationError(
                    f"{len(shard_managers)} shard manager(s) injected, "
                    f"deployment declares {shards}"
                )
            self.shards = tuple(shard_managers)
        else:
            self.shards = tuple(
                LockCore(catalog, protocol) for _ in range(shards)
            )
        #: True when any shard lives behind a process boundary: the
        #: adapter then fetches ``stats_document`` / ``history_events``
        #: and closes the shards at ``shutdown``.
        self._remote = any(
            getattr(shard, "is_remote", False) for shard in self.shards
        )
        # One service clock for the whole deployment: merged histories
        # and latency figures must be comparable across shards.  A
        # supervisor overrides ``_t0`` afterwards with the epoch it
        # already handed the shard-host processes.
        for shard in self.shards:
            shard._t0 = self._t0
        self.sharding_stats = ShardingStats()

        #: leg job -> owning global session (constraint/wait translation).
        self._job_sessions: Dict[Job, GlobalSession] = {}
        #: The registry of coordinator-level parks (global commit gate /
        #: global order guard); a leg's lock wait is its shard's park.
        self.parks: Dict[GlobalSession, Park] = {}
        #: The session-level wait-for graph over live sessions: each
        #: gate/guard park and each leg's lock wait, translated from its
        #: shard's graph.  Its edges do not inherit (priorities are per
        #: shard), so no inheritance pass runs on it.
        self.waits = WaitForGraph()
        #: The incrementally maintained session-level constraint graph,
        #: mirrored from shard LC3/LC4 records via churn notifications.
        #: A session's node is dropped wholesale at its global terminal —
        #: exactly when its legs' shard-side edges are dropped.
        self.constraints = ConstraintGraph()
        #: (kind, instance name, time) terminal rows for the merged history.
        self._outcomes: List[Tuple[str, str, float]] = []
        for index, shard in enumerate(self.shards):
            shard.churn_listeners.append(
                lambda kind, job, other, _shard=index: self._on_shard_churn(
                    _shard, kind, job, other
                )
            )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
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
        for shard in self.shards:
            shard.add_decision_listener(listener)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def begin(
        self, transaction: str, *, deadline_s: Optional[float] = None
    ) -> GlobalSession:
        """Open a global session for one instance of ``transaction``.

        The shard-span is computed here, from the declared access set —
        it is static by the same argument that makes ceilings static.
        No leg is opened yet; the first touch of a shard opens one.
        """
        spec = self._check_begin(transaction, deadline_s)
        self._check_capacity()
        session = self._open(GlobalSession(
            self._next_session_id, spec, self._number(transaction),
            self._spans[transaction], self.now(),
        ), deadline_s)
        if session.scope == "local":
            self.sharding_stats.local_sessions += 1
        else:
            self.sharding_stats.cross_shard_sessions += 1
        return session

    @operation
    def read(self, session: GlobalSession, item: str) -> Steps:
        """Read ``item`` through the owning shard's leg; returns the value
        or the :class:`Park` to ``resume`` from.

        The merged-graph order guard runs first: predecessors the owning
        shard cannot see locally (they hold no constraint edge there)
        must finish before this read may observe the item they will
        write.  The shard's own guard then covers the local remainder.
        """
        check_access(session.name, session.spec, item, LockMode.READ)
        shard_id = self._shard_of[item]
        yield from self._hold(
            session, ParkKind.ORDER_GUARD,
            lambda: self._remote_guard_blockers(session, shard_id, item),
        )
        leg = yield from self._leg(session, shard_id)
        return (yield from self._call(self.shards[shard_id].read, leg, item))

    @operation
    def write(self, session: GlobalSession, item: str, value: Any) -> Steps:
        """Buffer a deferred write on the owning shard's leg; returns
        ``None``, or the :class:`Park` to ``resume`` from."""
        check_access(session.name, session.spec, item, LockMode.WRITE)
        shard_id = self._shard_of[item]
        leg = yield from self._leg(session, shard_id)
        yield from self._call(self.shards[shard_id].write, leg, item, value)

    @operation
    def commit(self, session: GlobalSession) -> Steps:
        """Commit across every touched shard; returns the merged summary,
        or the :class:`Park` to ``resume`` from.

        Single-leg sessions delegate to their home shard (the local gate
        is sufficient — every direct constraint involving this session
        lives where it holds locks).  Cross-shard sessions park at the
        global gate until the merged predecessor set drains, then fence
        and install leg by leg.
        """
        legs = dict(sorted(session.legs.items()))
        if len(legs) > 1:
            while True:
                yield from self._hold(
                    session, ParkKind.COMMIT_GATE,
                    lambda: self._gate_blockers(session),
                )
                if (yield from self._prepare_legs(session, legs)):
                    break
            # The commit point.  In-process every leg commit below
            # completes in this call: its local gate is empty (its
            # constraints are a subset of the merged set just drained).
            # Over the wire each is a round-trip, and atomicity comes
            # from the fences instead: every leg is fenced, so no reader
            # can pass a write lock and record a new ``reader ≺
            # committer`` constraint between the installs (write
            # conflicts were already held off by the locks).
            session.installing = True  # every leg fenced, the gate empty
        installed: List[str] = []
        blocking = 0.0
        try:
            for shard_id, leg in legs.items():
                summary = yield from self._call(
                    self.shards[shard_id].commit, leg
                )
                installed.extend(summary["installed"])
                blocking += summary["blocking_s"]
        except BaseException as exc:
            # In-process a leg's failure has already cascaded (a shard
            # abort); remotely a shard host can die mid-install.  Either
            # way, fail loudly but do not leave legs holding locks.
            if session.state.live:
                self._abort_session(session, f"commit failure: {exc}")
            raise
        now = self._finish(session, SessionState.COMMITTED)
        latency = now - session.opened_at
        self.stats.record_commit(session.priority, latency)
        if len(legs) > 1:
            self.sharding_stats.cross_shard_commits += 1
        return {
            "installed": sorted(installed),
            "latency_s": latency,
            "blocking_s": blocking,
            "shards": list(legs),
        }

    def shutdown(self) -> None:
        """:meth:`SessionTable.shutdown`, then the in-process shards shut
        down too (the adapter closes remote ones).

        An in-process shard tears the legs down itself, all of them
        before its one grant-queue drain, and no session's teardown
        wakes another's gate/guard park (see :meth:`_finish`): a parked
        operation is never granted or woken and then aborted, and it
        fails with the shutdown's own error.
        """
        closing = not self._closed
        super().shutdown()
        if closing and not self._remote:
            for shard in self.shards:
                shard.shutdown()

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
        self.shards[shard_id].mark_lost(reason)
        failure = TransactionAborted(f"shard {shard_id} lost: {reason}")
        for session in list(self._sessions.values()):
            if shard_id not in session.legs and shard_id not in session.span:
                continue
            self.sharding_stats.cascade_aborts += 1
            self._abort_session(
                session, f"shard {shard_id} lost: {reason}", exc=failure
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats_document(self) -> Dict[str, Any]:
        """The ``stats`` payload: merged shard stats + coordinator view."""
        return self._assemble_stats(
            [shard.stats_document() for shard in self.shards]
        )

    def _assemble_stats(
        self, shard_docs: List[Dict[str, Any]]
    ) -> Dict[str, Any]:
        """Merge per-shard ``stats`` documents with the coordinator's view.

        Lock-level signals (grants, denials, waits, and the same in each
        priority band) are the union of the shards; session-level ones
        (sessions, commits, aborts, end-to-end commit latency, and each
        band's commits and aborts) come from the coordinator, which is
        the only place a cross-shard transaction counts once.  ``shards``
        carries one summary entry per shard (including its latency
        histograms) and ``coordinator`` the sharding counters — both
        ignored by :meth:`ServiceStats.from_dict`, so unsharded
        consumers read the document unchanged.
        """
        shard_stats = [ServiceStats.from_dict(d) for d in shard_docs]
        merged = ServiceStats()
        for stats in shard_stats:
            merged.merge(stats)
        for priority in {b.priority for b in merged.bands + self.stats.bands}:
            band, own = merged.band(priority), self.stats.band(priority)
            band.commits, band.aborts = own.commits, own.aborts
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
        doc["live_sessions"] = len(self._sessions)
        doc["waiting_sessions"] = len(self.parks) + sum(
            d["waiting_sessions"] for d in shard_docs
        )
        known = [
            d["system_ceiling"] for d in shard_docs
            if d["system_ceiling"] is not None
        ]
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
        """The merged observable history as JSON-friendly rows."""
        return self._assemble_history(
            [row for shard in self.shards for row in shard.history_events()]
        )

    def _assemble_history(
        self, data_rows: List[Dict[str, Any]]
    ) -> List[Dict[str, Any]]:
        """Merge the shards' data rows with the coordinator's outcomes.

        Data rows (reads, installs) come from the shard that executed
        them; terminal rows (commit, abort) come from the coordinator's
        outcome log — exactly one per global session, replacing the
        per-leg terminals each shard recorded.  Rows are ordered by
        service-clock time (one clock for all shards); the
        serializability oracle depends only on per-item version
        sequences, which shard-disjoint item spaces keep consistent, so
        the merged log replays through ``check_serializable`` unchanged.
        """
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

    # ------------------------------------------------------------------
    # Operation plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _call(op: Callable[..., Any], *args: Any, **kwargs: Any) -> Steps:
        """One shard operation: its result, after waiting out every park
        it returns (a leg's lock wait, a remote request) and resuming."""
        result = op(*args, **kwargs)
        while isinstance(result, Park):
            try:
                yield result
            except GeneratorExit:
                # Dropped where it waits: so is the leg's operation.
                if result.session is not None:
                    result.session.drop_op()
                raise
            result = op(*args, resume=result, **kwargs)
        return result

    def _leg(self, session: GlobalSession, shard_id: int) -> Steps:
        """The session's leg on ``shard_id``, opened on first touch.

        Legs run uncapped and deadline-free: admission and deadlines are
        coordinator concerns.  Tie-breakers (grant-queue FIFO, victim
        choice) must follow the *global* begin order, not the lazy
        leg-creation order, or two equal-priority sessions could be
        served in a different order than the unsharded manager would
        serve them: the leg's job takes the global session id as its
        ``seq``.
        """
        leg = session.legs.get(shard_id)
        if leg is None:
            leg = yield from self._call(
                self.shards[shard_id].begin, session.spec.name,
                instance=session.instance, seq=session.id,
            )
            session.legs[shard_id] = leg
            self._job_sessions[leg.job] = session
        return leg

    def _prepare_legs(
        self, session: GlobalSession, legs: Dict[int, Session]
    ) -> Steps:
        """Fence every leg for install; True when the gate stayed empty.

        In-process, :meth:`LockCore.prepare_commit` only flips inert
        state inside the atomic section.  Over the wire each fence is a
        round-trip, and a reader may have slipped past a write lock
        (recording a new ``reader ≺ committer`` constraint) before its
        shard's fence landed — but any such constraint frame travelled
        the same connection *before* the fence acknowledgement, so by
        the time every prepare has resolved the merged graph is
        complete: re-checking the gate here is sound.  Non-empty means
        back off (drop the fences, park at the gate again); the parked
        readers re-pass the write locks as if the fences never existed.
        """
        prepared: List[Tuple[int, Session]] = []
        try:
            for shard_id, leg in legs.items():
                yield from self._call(self.shards[shard_id].prepare_commit, leg)
                prepared.append((shard_id, leg))
        except BaseException:
            self._unprepare_legs(prepared)
            raise
        if not self._gate_blockers(session):
            return True
        self._unprepare_legs(prepared)
        return False

    def _unprepare_legs(self, prepared: List[Tuple[int, Session]]) -> None:
        """Drop the fences of still-live legs (the proxy posts it)."""
        for shard_id, leg in prepared:
            if leg.state.live:
                self.shards[shard_id].unprepare_commit(leg)

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
        * ``"wait"`` / ``"unwait"`` — a leg's wait edges were written or
          removed: the session's edges in :attr:`waits` follow, read
          from the shard's graph.  A remote shard's ``"wait"`` is its
          frame, applied outside any core call, so the deadlock pass
          runs here.
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
                self._abort_session(session, f"shard:{reason}")
        elif kind == "wait":
            session = self._job_sessions.get(job)
            if session is not None and session.state.live:
                self._wait(session, shard_id, [
                    self._job_sessions.get(blocker)
                    for blocker in self.shards[shard_id].waits.blockers_of(job)
                ])
            if getattr(self.shards[shard_id], "is_remote", False):
                self._check_global_deadlock()
        elif kind == "unwait":
            session = self._job_sessions.get(job)
            if session is not None:
                self.waits.unblock(session)

    def _wait(
        self,
        session: GlobalSession,
        place: Optional[int],
        blockers: Sequence[Optional[GlobalSession]],
    ) -> None:
        """Point ``session``'s edges in :attr:`waits` at the live ones of
        ``blockers`` (``None`` is a job no live session owns), waiting
        at ``place``."""
        live = [b for b in blockers if b is not None and b.state.live]
        if live:
            session.place = place
            self.waits.block(session, live, inherit=False)
        else:
            self.waits.unblock(session)

    def _after_op(self) -> None:
        """The deadlock pass, at the end of every operation and every
        teardown: the calls that write wait edges."""
        self._check_global_deadlock()

    _after_abort = _after_op

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

    def _hold(
        self,
        session: GlobalSession,
        kind: ParkKind,
        blockers_fn: Callable[[], Tuple[GlobalSession, ...]],
    ) -> Steps:
        """Park at the coordinator until ``blockers_fn`` drains.

        The park's edges stand in :attr:`waits`, so only a blocker's
        terminal ends it — predecessors arriving *while* parked can only
        grow the set and never require a wake, and the re-evaluation
        after each end picks them up.  An abort ends it too, and the
        operation raises that abort's error
        (:meth:`SessionTable._wait_out`).
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
        try:
            while blockers:
                park = self.parks[session] = Park(
                    session, kind, blockers, started
                )
                self._wait(session, None, blockers)
                try:
                    yield from self._wait_out(
                        session, park, f" (while parked at the {kind.value})"
                    )
                finally:
                    del self.parks[session]
                    self.waits.unblock(session)
                blockers = blockers_fn()
        finally:
            if session.state is SessionState.WAITING:
                session.state = previous_state
            park_hist.record(self.now() - started)

    # ------------------------------------------------------------------
    # Terminal transitions
    # ------------------------------------------------------------------
    def _finish(
        self,
        session: GlobalSession,
        state: SessionState,
        failure: Optional[ServiceError] = None,
    ) -> float:
        """The terminal transition commit and abort share; returns the
        time of its outcome row.

        The session leaves every registry and both graphs, an aborted
        one's live legs are torn down with ``failure``, and exactly the
        gate/guard parks waiting on it end (each re-evaluates its
        blockers).  At shutdown an in-process shard tears its legs down
        itself (see :meth:`shutdown`), and no park is woken: every
        session is aborted, and each abort ends its own park with the
        shutdown's error.
        """
        session.state = state
        del self._sessions[session.id]
        for shard_id, leg in session.legs.items():
            if leg.state.live and (self._remote or not self._closed):
                self.shards[shard_id].force_abort(
                    leg, session.abort_reason, exc=failure
                )
            self._job_sessions.pop(leg.job, None)
        now = self.now()
        self._outcomes.append((
            "commit" if state is SessionState.COMMITTED else "abort",
            session.name, now,
        ))
        self.constraints.drop(session)
        for waiter in () if self._closed else self.waits.waiters_on(session):
            park = self.parks.get(waiter)
            if park is not None and not park.ended:
                end_park(park, None)
        self.waits.forget(session)
        return now

    def _abort_session(
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
        session.abort_reason = reason
        failure = exc or TransactionAborted(f"{session.name}: {reason}")
        self._finish(session, SessionState.ABORTED, failure)
        self.stats.record_abort(session.priority, forced=forced)
        # The victim itself may be parked at a gate/guard: end that park
        # so the operation observes the abort.
        park = self.parks.get(session)
        if park is not None and not park.ended:
            end_park(park, failure)

    # ------------------------------------------------------------------
    # Cross-shard deadlock detection
    # ------------------------------------------------------------------
    def _check_global_deadlock(self) -> None:
        """Find and resolve a wait cycle spanning shards or the coordinator.

        The engine's edge-local search runs on :attr:`waits`.  A session
        has one in-flight operation, so it waits in exactly one place
        (:attr:`GlobalSession.place`), and a cycle whose members all
        wait on shard *i* is made of shard *i*'s edges alone: it is left
        to that shard's own detector (identical rules to the unsharded
        manager).  Any other cycle exists only because of partitioning,
        so it is resolved by aborting the lowest-base-priority member —
        the same policy the unsharded manager applies to service-level
        cycles.  The abort is a teardown like any other, so a cycle its
        teardown closes is resolved before it returns.

        A 1-shard deployment needs no pass: no coordinator wait ever
        parks there and cross-shard cycles cannot exist, so the shard's
        own detector is complete.
        """
        if self._closed or len(self.shards) == 1:
            return
        cycle = self.waits.find_new_cycle()
        if cycle is None:
            return
        places = {session.place for session in cycle}
        if len(places) == 1 and None not in places:
            return  # purely shard-local: that shard's own business
        self.sharding_stats.cross_shard_deadlocks += 1
        names = " -> ".join(s.name for s in cycle)
        victim = min(cycle, key=lambda s: (s.priority, -s.id))
        self.force_abort(
            victim, "deadlock",
            exc=TransactionAborted(
                f"{victim.name} chosen as cross-shard deadlock victim "
                f"({names})"
            ),
        )
