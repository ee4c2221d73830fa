"""The coordinator's stand-in for a shard living in another process.

A :class:`RemoteShardProxy` implements exactly the surface
:class:`~repro.service.sharding.coordinator.ShardedLockManager` consumes
from a shard — ``begin``/``read``/``write``/``commit``, the commit-fence
pair ``prepare_commit``/``unprepare_commit``, ``force_abort``, the
constraint/wait introspection (``constraints``, ``waits``) and the
churn/decision listener hookup — so the coordinator code runs unchanged
whether a shard is an in-process :class:`LockManager` or a
``repro shard-host`` on the far side of a socket.

Two mechanisms make that possible:

* **Mirrors.**  The proxy keeps a local mirror :class:`Session` (with a
  real engine :class:`Job` inside) for every leg it opened, plus mirrors
  of the host's constraint edges (over the mirror jobs) and wait-for
  edges (by instance name).
  Synchronous coordinator reads — the gate's predecessor closure, the
  deadlock detector's wait graph — are answered from the mirrors with no
  round-trip.
* **The push stream.**  After ``hello`` + ``subscribe`` the host streams
  every churn notification as a v2 event frame — and every lock
  decision too, once a decision listener is registered (the parity
  battery; nobody else pays for those frames).  Frames are emitted
  synchronously during dispatch and join the same per-connection output
  queue as responses, so on this one TCP stream every frame precedes
  the response of the operation that caused it: by the time an
  operation's response resolves, the mirrors already reflect everything
  that operation changed.  The mirrors are therefore not "eventually
  consistent" in any way the coordinator can observe — they are exact
  at every response boundary.

Writes travel two ways: operations whose result the coordinator needs
(``begin``, ``read``, ``prepare``) are awaited calls; bookkeeping the
coordinator treats as synchronous on an in-process shard
(``unprepare``, ``force_abort``) is *posted* fire-and-forget — the
mirror flips immediately, the frame confirming it is ignored, and
same-stream FIFO guarantees the host applies it before any later call.
Both are the client end of
:class:`~repro.service.connection.Connection`: everything the
coordinator sends one host within an event-loop tick leaves in one
write.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.job import Job
from repro.exceptions import ServiceError
from repro.model.spec import TaskSet
from repro.service import wire
from repro.service.connection import Connection
from repro.service.constraints import ConstraintGraph
from repro.service.core import Session, SessionState, catalog_document
from repro.service.stats import ServiceStats
from repro.trace.recorder import LockEvent


class _RemoteProtocol:
    """Protocol identity of the remote shard (name only).

    The coordinator reads ``shard.protocol.name`` for documents and
    reports; decision *logic* runs host-side, so the name is all a proxy
    needs to carry.
    """

    def __init__(self, name: str):
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging sugar
        return f"_RemoteProtocol({self.name!r})"


class _WaitMirror:
    """Read-only ``WaitForGraph`` facade over the proxy's wait edges.

    The coordinator's cross-shard deadlock detector consumes only
    ``waiters()`` and ``blockers_of()``; both are answered from the
    name-keyed edge mirror maintained by ``wait``/``unwait`` frames.
    """

    def __init__(self, proxy: "RemoteShardProxy"):
        self._proxy = proxy

    def waiters(self) -> List[Job]:
        jobs = self._proxy._jobs
        return [
            jobs[name] for name in self._proxy._wait_edges if name in jobs
        ]

    def blockers_of(self, job: Job) -> List[Job]:
        jobs = self._proxy._jobs
        return [
            jobs[name]
            for name in self._proxy._wait_edges.get(job.name, ())
            if name in jobs
        ]


class RemoteShardProxy:
    """One shard-host connection, speaking the ``LockManager`` surface."""

    #: Flips the coordinator's introspection to the async fetch path.
    is_remote = True

    def __init__(self, catalog: TaskSet, *, label: str = "shard") -> None:
        self._catalog = catalog
        self.label = label
        #: The client end of the host connection; :meth:`connect` puts
        #: it on a socket, tests on an in-memory transport.
        self.connection = Connection(on_event=self._apply_frame, label=label)
        self._ids = itertools.count(1)

        # -- mirrors -----------------------------------------------------
        #: instance name -> mirror job of a live leg.
        self._jobs: Dict[str, Job] = {}
        #: instance name -> mirror session of a live leg.
        self._legs: Dict[str, Session] = {}
        #: Mirror of the host's ``reader ≺ writer`` edges, over the mirror
        #: jobs — the same public attribute a ``LockManager`` carries.
        self.constraints = ConstraintGraph()
        #: waiter name -> blocker names (current wait-for edges).
        self._wait_edges: Dict[str, Tuple[str, ...]] = {}

        # -- LockManager-surface attributes ------------------------------
        self.waits = _WaitMirror(self)
        self.churn_listeners: List[Callable[..., None]] = []
        self.decision_listeners: List[Callable[[LockEvent], None]] = []
        #: Mirror legs never carry history or local stats; the
        #: coordinator uses the async fetch path for both when any shard
        #: is remote, so these exist only to satisfy the surface.
        self.history: Tuple[Any, ...] = ()
        self.stats = ServiceStats()
        self.protocol = _RemoteProtocol("unknown")
        self._t0 = 0.0  # overwritten by the coordinator/supervisor

    # ------------------------------------------------------------------
    # Connection lifecycle
    # ------------------------------------------------------------------
    @classmethod
    async def connect(
        cls,
        catalog: TaskSet,
        host: str,
        port: int,
        *,
        label: str = "shard",
    ) -> "RemoteShardProxy":
        """Open a TCP connection to a shard host and negotiate v2."""
        proxy = cls(catalog, label=label)
        await asyncio.get_running_loop().create_connection(
            lambda: proxy.connection, host, port
        )
        try:
            await proxy.negotiate()
        except BaseException:
            await proxy.shutdown()
            raise
        return proxy

    async def negotiate(self) -> None:
        """``hello`` + ``subscribe`` over the attached connection."""
        hello = await self._call(
            "hello",
            version=wire.PROTOCOL_VERSION,
            features=["events", "shard-ops"],
        )
        granted = set(hello.get("features", ()))
        missing = {"events", "shard-ops"} - granted
        if missing:
            raise ServiceError(
                f"{self.label}: host lacks required features "
                f"{sorted(missing)} (not a shard host?)"
            )
        self.protocol = _RemoteProtocol(hello["protocol"])
        await self._call("subscribe", events=self._wanted_events())

    def _wanted_events(self) -> List[str]:
        """Decision frames only while somebody listens to them."""
        return ["churn", "decision"] if self.decision_listeners else ["churn"]

    def add_decision_listener(
        self, listener: Callable[[LockEvent], None]
    ) -> None:
        """Subscribe ``listener`` to the host's lock decisions.

        The first one widens the host subscription to decision frames
        (posted: stream order applies it before any later operation).
        """
        self.decision_listeners.append(listener)
        self._post("subscribe", events=self._wanted_events())

    async def shutdown(self) -> None:
        """Close the connection; pending calls fail, mirrors are kept."""
        await self.connection.close()

    def mark_lost(self, reason: str) -> None:
        """The host process died: flip every live mirror leg terminally.

        Called by the coordinator's ``on_shard_lost`` *before* it aborts
        the touched global sessions, so their dead-shard legs are
        already non-live and ``force_abort`` never posts to the corpse.
        """
        for name, leg in list(self._legs.items()):
            if leg.state.live:
                leg.state = SessionState.ABORTED
                leg.abort_reason = f"shard host lost: {reason}"
            self._forget(name)

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    async def _call(self, op: str, **params: Any) -> Dict[str, Any]:
        """One awaited request; raises the mapped service error."""
        return wire.unwrap(await self.connection.request(
            {"id": next(self._ids), "op": op, **params}
        ))

    def _post(self, op: str, **params: Any) -> None:
        """Fire-and-forget request: the response is discarded on arrival.

        Used for operations the coordinator treats as synchronous on an
        in-process shard.  The local mirror flips before this returns;
        same-stream FIFO means the host applies the operation before
        anything this coordinator sends later.  A dead connection is
        tolerated silently — the supervisor's crash handling owns that.
        """
        self.connection.send({"id": next(self._ids), "op": op, **params})

    # ------------------------------------------------------------------
    # Event frames -> mirrors
    # ------------------------------------------------------------------
    def _apply_frame(self, frame: Dict[str, Any]) -> None:
        if frame.get("event") == "decision":
            event = wire.decision_from_frame(frame)
            for listener in self.decision_listeners:
                listener(event)
            return
        if frame.get("event") != "churn":
            return  # unknown event type: forward-compatible skip
        kind = frame.get("kind")
        name = frame.get("job")
        if kind == "constraint":
            reader = self._jobs.get(name)
            writer = self._jobs.get(frame.get("other"))
            if reader is None or writer is None:
                return  # an end is already forgotten: so is the edge
            self.constraints.add(reader, writer)
            self._notify(kind, reader, writer)
        elif kind == "wait":
            self._wait_edges[name] = tuple(frame.get("blockers", ()))
            self._notify(kind, self._jobs.get(name), None)
        elif kind == "unwait":
            self._wait_edges.pop(name, None)
            self._notify(kind, self._jobs.get(name), None)
        elif kind == "abort":
            leg = self._legs.get(name)
            if leg is not None and leg.state.live:
                leg.state = SessionState.ABORTED
                leg.abort_reason = frame.get("reason") or "shard abort"
            job = self._jobs.get(name)
            self._forget(name)
            # Notify *after* the mirror flip: the coordinator's cascade
            # reads the leg's abort reason inside this callback.
            self._notify(kind, job, None)
        elif kind == "finish":
            leg = self._legs.get(name)
            if leg is not None and leg.state.live:
                leg.state = SessionState.COMMITTED
            job = self._jobs.get(name)
            self._forget(name)
            self._notify(kind, job, None)

    def _notify(
        self, kind: str, job: Optional[Job], other: Optional[Job]
    ) -> None:
        """Fan a churn frame out to listeners, mirror-jobs attached.

        Frames about legs this proxy no longer mirrors (e.g. the host's
        abort confirmation after a local ``force_abort`` already forgot
        the leg) carry no job object and are dropped: the coordinator
        already observed that terminal.
        """
        if job is None:
            return
        for listener in self.churn_listeners:
            listener(kind, job, other)

    def _forget(self, name: str) -> None:
        """Drop a terminal leg's mirrors (constraint node, wait edge)."""
        job = self._jobs.pop(name, None)
        self._legs.pop(name, None)
        self._wait_edges.pop(name, None)
        if job is not None:
            self.constraints.drop(job)

    # ------------------------------------------------------------------
    # The LockManager surface the coordinator consumes
    # ------------------------------------------------------------------
    async def begin(
        self,
        transaction: str,
        *,
        deadline_s: Optional[float] = None,
        instance: Optional[int] = None,
        seq: Optional[int] = None,
    ) -> Session:
        """Open a leg on the host; returns its local mirror session.

        The mirror embeds a real engine :class:`Job` so every
        coordinator structure keyed or ordered by jobs (constraint
        graph, wait graph, ``_job_sessions``) works identically to the
        in-process case.  The mirror's arrival time is a placeholder;
        ``seq`` (the coordinator's tie-break pin) reaches the host in
        the same message and the mirror job alike.
        """
        params: Dict[str, Any] = {"transaction": transaction}
        if deadline_s is not None:
            params["deadline_s"] = deadline_s
        if instance is not None:
            params["instance"] = instance
        if seq is not None:
            params["seq"] = seq
        result = await self._call("begin", **params)
        name = result["name"]
        if instance is None:
            instance = int(name.rpartition("#")[2])
        job = Job(self._catalog[transaction], instance, 0.0)
        if seq is not None:
            job.seq = seq
        leg = Session(result["session"], job, 0.0, None)
        self._jobs[name] = job
        self._legs[name] = leg
        return leg

    async def read(self, leg: Session, item: str) -> Any:
        """Read ``item`` through the host's protocol; may park there."""
        result = await self._call("read", session=leg.id, item=item)
        return result["value"]

    async def write(self, leg: Session, item: str, value: Any) -> None:
        """Acquire the write lock host-side and buffer the value."""
        await self._call("write", session=leg.id, item=item, value=value)

    async def commit(self, leg: Session) -> Dict[str, Any]:
        """Install the leg host-side; the finish frame precedes the ack."""
        result = await self._call("commit", session=leg.id)
        if leg.state.live:  # frame raced a connection hiccup: flip anyway
            leg.state = SessionState.COMMITTED
            self._forget(leg.name)
        return result

    async def abort(self, leg: Session, reason: str = "client") -> None:
        """Client-initiated abort; the abort frame flips the mirror."""
        await self._call("abort", session=leg.id, reason=reason)

    async def prepare_commit(self, leg: Session) -> Tuple[str, ...]:
        """Fence the leg for install (awaited: the ack is the fence point).

        By the time the ack resolves, every constraint frame recorded
        before the fence landed has been applied to the mirror — the
        property the coordinator's post-prepare gate re-check is built
        on.
        """
        result = await self._call("prepare", session=leg.id)
        leg.committing = True
        return tuple(result.get("gate", ()))

    def unprepare_commit(self, leg: Session) -> None:
        """Drop the fence (gate back-off); posted fire-and-forget."""
        leg.committing = False
        self._post("unprepare", session=leg.id)

    def force_abort(
        self, leg: Session, reason: str, *, exc: Optional[BaseException] = None
    ) -> None:
        """Coordinator-driven abort: mirror flips now, host follows.

        Matches the in-process contract of being synchronous and
        idempotent.  The host's own abort frame for this leg arrives
        later and is dropped (the mirror is already forgotten).
        """
        if not leg.state.live:
            return
        leg.state = SessionState.ABORTED
        leg.abort_reason = reason
        name = leg.name
        self._forget(name)
        self._post("force_abort", session=leg.id, reason=reason)

    def system_ceiling(self) -> Optional[int]:
        """Unknown without a round-trip; the async stats path carries it."""
        return None

    def catalog_document(self) -> List[Dict[str, Any]]:
        """Answered locally: the catalog is static and shared."""
        return catalog_document(self._catalog)

    # ------------------------------------------------------------------
    # Async introspection (the coordinator's remote fetch path)
    # ------------------------------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns the host's version document."""
        return await self._call("ping")

    async def fetch_stats_document(self) -> Dict[str, Any]:
        """The shard's full stats document, fetched over the wire."""
        return await self._call("stats")

    async def fetch_history_events(self) -> List[Dict[str, Any]]:
        """The shard's history rows (one dict per data event)."""
        return (await self._call("history"))["events"]

    async def fetch_wait_graph(self) -> Dict[str, List[str]]:
        """The host's authoritative wait-for edges (diagnostics)."""
        return (await self._call("wait_graph"))["edges"]
