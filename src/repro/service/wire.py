"""The service wire protocol: one schema for both transports.

Requests and responses are JSON documents; over TCP they travel as
newline-delimited JSON (NDJSON, one document per line, UTF-8).  The
in-process transport used by the test suite calls
:func:`dispatch_request` directly with the same documents, so every byte
of behaviour exercised in-process is the behaviour a remote client sees —
minus the socket.

Request::

    {"id": 7, "op": "read", "session": 3, "item": "x"}

Response::

    {"id": 7, "ok": true, "result": {"value": 42}}
    {"id": 7, "ok": false,
     "error": {"kind": "aborted", "message": "T1#4: deadlock"}}

``id`` is an opaque client-chosen correlation token echoed back verbatim;
clients may pipeline many requests on one connection and match responses
by ``id`` (the server replies in completion order, not arrival order).
Error ``kind`` strings are the stable ``kind`` attributes of the
:class:`~repro.exceptions.ServiceError` hierarchy, which lets the client
library re-raise the matching exception class (see ``ERROR_TYPES``).

Version 2 adds server-pushed **event frames** — documents with an
``event`` key and *no* ``id`` — which a shard host emits to subscribed
connections so ``churn_listeners`` / ``decision_listeners``
notifications stream to a remote coordinator::

    {"event": "churn", "kind": "constraint", "job": "T1#4", "other": "T2#0"}
    {"event": "decision", "job": "T1#4", "item": "x", "mode": "read",
     "outcome": "granted", "rule": "LC3", "time": 0.17, "blockers": []}

Frames are emitted synchronously while the triggering request is being
dispatched and join the same per-connection output queue as responses
(:mod:`repro.service.connection`), so on one connection every frame
precedes the response of the operation that caused it — the ordering the
proxy's mirrors rely on.  ``subscribe`` names the event kinds wanted
(``EVENT_KINDS``; all of them when it names none).  Clients that never
send ``subscribe`` never receive a frame; clients of a different
protocol era get a clear ``version`` error from ``hello``.

The full operation table lives in docs/SERVICE.md.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, FrozenSet, Iterable, Optional, Type

from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    ProtocolVersionError,
    ReproError,
    ServiceError,
    SessionStateError,
    TransactionAborted,
)
from repro.model.spec import LockMode
from repro.service.manager import LockManager
from repro.trace.recorder import LockEvent, LockOutcome

#: Bumped on incompatible schema changes; shipped in every ``hello``/
#: ``ping`` response so clients can refuse to talk to the wrong era.
#: v2: event frames, ``hello`` negotiation, and the shard-host operation
#: family (``subscribe`` / ``prepare`` / ``unprepare`` / ``force_abort``).
PROTOCOL_VERSION = "repro-service/2"

#: Optional capabilities a ``hello`` may negotiate.  ``events`` is the
#: server-push frame stream; ``shard-ops`` is the coordinator-facing
#: operation family a shard host exposes (``prepare`` / ``unprepare`` /
#: ``force_abort``, and ``begin`` pins), which a plain server refuses.
FEATURES = frozenset({"events", "shard-ops"})

#: Longest NDJSON line a connection accepts, both directions; a peer that
#: sends a longer one is disconnected, so a sending end answers a
#: document that would exceed it with an error instead (see
#: ``Connection._line``).  ``history`` responses carry one row per data
#: event of the whole run, about 445 bytes per committed transaction:
#: 64 MiB holds the history of about 150k transactions.
STREAM_LIMIT = 64 * 1024 * 1024

#: Error ``kind`` → exception class, for client-side re-raising.
ERROR_TYPES: Dict[str, Type[ServiceError]] = {
    cls.kind: cls
    for cls in (
        ServiceError,
        AdmissionError,
        SessionStateError,
        TransactionAborted,
        DeadlineExceeded,
        ProtocolVersionError,
    )
}


def encode(document: Dict[str, Any]) -> bytes:
    """Serialize one wire document to an NDJSON line."""
    return (json.dumps(document, separators=(",", ":")) + "\n").encode("utf-8")


def decode(line: bytes) -> Dict[str, Any]:
    """Parse one NDJSON line into a wire document."""
    document = json.loads(line.decode("utf-8"))
    if not isinstance(document, dict):
        raise ValueError("wire document must be a JSON object")
    return document


def error_response(request_id: Any, kind: str, message: str) -> Dict[str, Any]:
    """A failure document echoing the request's correlation id."""
    return {
        "id": request_id,
        "ok": False,
        "error": {"kind": kind, "message": message},
    }


def ok_response(request_id: Any, result: Dict[str, Any]) -> Dict[str, Any]:
    """A success document echoing the request's correlation id."""
    return {"id": request_id, "ok": True, "result": result}


def unwrap(response: Dict[str, Any]) -> Dict[str, Any]:
    """The result of a response document; its error re-raised, typed."""
    if response.get("ok"):
        result = response.get("result")
        return result if isinstance(result, dict) else {}
    error = response.get("error") or {}
    raise ERROR_TYPES.get(error.get("kind", "service"), ServiceError)(
        error.get("message", "unknown service error")
    )


def exception_to_error(request_id: Any, exc: BaseException) -> Dict[str, Any]:
    """Map an exception onto a wire error document.

    Service errors keep their stable ``kind``; other library errors (bad
    transaction name, malformed spec) surface as ``bad-request``; anything
    else is an ``internal`` error — the message is included because this
    is a reproduction harness, not a hardened production server.
    """
    if isinstance(exc, ServiceError):
        return error_response(request_id, exc.kind, str(exc))
    if isinstance(exc, (ReproError, KeyError, ValueError, TypeError)):
        return error_response(request_id, "bad-request", str(exc))
    return error_response(request_id, "internal", f"{type(exc).__name__}: {exc}")


async def dispatch_request(
    manager: "LockManager", request: Dict[str, Any],
    features: FrozenSet[str] = FEATURES,
) -> Dict[str, Any]:
    """Execute one wire request against a manager; never raises.

    This is the single entry point shared by the TCP server and the
    in-process transport — the differential guarantee between them is
    that there is only one code path.  ``manager`` is any object with
    the :class:`LockManager` service surface — in particular a
    :class:`~repro.service.sharding.coordinator.ShardedLockManager`
    works unchanged (sharding adds per-shard stats fields, nothing else
    on the wire).  ``features`` is what the serving end offers: ``hello``
    grants no other, and without ``shard-ops`` that family is refused.
    """
    request_id = request.get("id")
    manager.stats.requests += 1
    try:
        op = request["op"]
        result = await _execute(manager, op, request, features)
    except BaseException as exc:  # noqa: BLE001 - mapped onto the wire
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        return exception_to_error(request_id, exc)
    return ok_response(request_id, result)


async def _maybe_await(value: Any) -> Any:
    """Resolve a possibly-async introspection result.

    A plain :class:`LockManager` answers ``stats_document`` /
    ``history_events`` synchronously; a coordinator over remote shards
    must fetch the shard documents over the wire and returns a
    coroutine.  The wire layer accepts either so both deployments serve
    the same operation table.
    """
    if asyncio.iscoroutine(value):
        return await value
    return value


def _shard_surface(
    manager: "LockManager", op: str, features: FrozenSet[str]
) -> None:
    if "shard-ops" not in features or not hasattr(manager, "prepare_commit"):
        raise ValueError(
            f"{op}: this server is not a shard host "
            "(the operation targets a single LockManager shard)"
        )


async def _execute(manager: "LockManager", op: str, request: Dict[str, Any],
                   features: FrozenSet[str]) -> Dict[str, Any]:
    if op == "ping":
        return {"pong": True, "version": PROTOCOL_VERSION,
                "protocol": manager.protocol.name,
                "shards": manager.shard_count}
    if op == "hello":
        return _hello(manager, request, features)
    if op == "catalog":
        return {
            "protocol": manager.protocol.name,
            "version": PROTOCOL_VERSION,
            "transactions": manager.catalog_document(),
        }
    if op == "begin":
        kwargs: Dict[str, Any] = {"deadline_s": request.get("deadline_s")}
        # Coordinator pins, accepted by a single shard only: the global
        # instance number, and the global session id as tie-break
        # ``seq`` (see docs/SHARDING.md).
        for pin in ("instance", "seq"):
            if request.get(pin) is not None:
                _shard_surface(manager, f"begin with {pin}", features)
                kwargs[pin] = request[pin]
        session = await manager.begin(request["transaction"], **kwargs)
        return {
            "session": session.id,
            "name": session.name,
            "priority": session.priority,
        }
    if op == "read":
        session = manager.session(request["session"])
        value = await manager.read(session, request["item"])
        return {"value": value}
    if op == "write":
        session = manager.session(request["session"])
        await manager.write(session, request["item"], request["value"])
        return {"buffered": True}
    if op == "commit":
        session = manager.session(request["session"])
        return await manager.commit(session)
    if op == "abort":
        session = manager.session(request["session"])
        await manager.abort(session, request.get("reason", "client"))
        return {"aborted": True}
    if op == "prepare":
        _shard_surface(manager, op, features)
        session = manager.session(request["session"])
        manager.prepare_commit(session)
        return {"prepared": True}
    if op == "unprepare":
        _shard_surface(manager, op, features)
        session = manager.session(request["session"])
        manager.unprepare_commit(session)
        return {"prepared": False}
    if op == "force_abort":
        _shard_surface(manager, op, features)
        session = manager.session(request["session"])
        manager.force_abort(session, request.get("reason", "coordinator"))
        return {"aborted": True}
    if op == "stats":
        return await _maybe_await(manager.stats_document())
    if op == "history":
        return {"events": await _maybe_await(manager.history_events())}
    if op == "topology":
        return manager.topology_document()
    raise ValueError(f"unknown operation {op!r}")


def _hello(
    manager: "LockManager", request: Dict[str, Any], features: FrozenSet[str]
) -> Dict[str, Any]:
    """Version/feature negotiation.

    Major versions (the part after the ``/``) must match exactly; the
    mismatch error names both sides so a ``repro-service/1`` client gets
    an actionable message instead of silently mis-parsing event frames.
    Features are granted as the intersection of what the client asked
    for and what this server offers.
    """
    client_version = str(request.get("version", "") or "")
    client_era = client_version.partition("/")[2]
    server_era = PROTOCOL_VERSION.partition("/")[2]
    if client_era != server_era:
        raise ProtocolVersionError(
            f"incompatible wire protocol: client speaks "
            f"{client_version or 'an unknown version'!r}, server speaks "
            f"{PROTOCOL_VERSION!r} (event-frame servers require matching "
            "versions; upgrade the older side)"
        )
    requested = request.get("features") or ()
    return {
        "version": PROTOCOL_VERSION,
        "protocol": manager.protocol.name,
        "features": sorted(features.intersection(requested)),
    }


# ----------------------------------------------------------------------
# Event frames (server push, v2)
# ----------------------------------------------------------------------

#: Event kinds a ``subscribe`` may name.
EVENT_KINDS = ("churn", "decision")

#: Churn kinds a shard host streams; mirrors ``LockManager`` churn
#: notifications plus ``unwait`` (a waiter left the wait-for graph
#: without terminating), which remote mirrors need but in-process
#: listeners can derive from re-decides.
CHURN_KINDS = ("constraint", "wait", "unwait", "abort", "finish")


def is_event(document: Dict[str, Any]) -> bool:
    """True for a server-pushed frame (no correlation id, ``event`` key)."""
    return "event" in document and "id" not in document


def churn_frame(
    kind: str,
    job: str,
    other: Optional[str] = None,
    *,
    blockers: Optional[Iterable[str]] = None,
    reason: Optional[str] = None,
) -> Dict[str, Any]:
    """Encode one churn notification as a push frame.

    ``other`` carries the successor job of a ``constraint`` edge;
    ``blockers`` the current blocker set of a ``wait``; ``reason`` the
    abort reason of an ``abort``.  Absent fields are omitted from the
    frame rather than sent as nulls.
    """
    if kind not in CHURN_KINDS:
        raise ValueError(f"unknown churn kind {kind!r}")
    frame: Dict[str, Any] = {"event": "churn", "kind": kind, "job": job}
    if other is not None:
        frame["other"] = other
    if blockers is not None:
        frame["blockers"] = sorted(blockers)
    if reason is not None:
        frame["reason"] = reason
    return frame


def decision_frame(event: LockEvent) -> Dict[str, Any]:
    """Encode one protocol decision as a push frame."""
    return {
        "event": "decision",
        "time": event.time,
        "job": event.job,
        "item": event.item,
        "mode": event.mode.value,
        "outcome": event.outcome.value,
        "rule": event.rule,
        "blockers": list(event.blockers),
    }


def decision_from_frame(frame: Dict[str, Any]) -> LockEvent:
    """Decode a decision frame back into the in-process event object."""
    return LockEvent(
        time=frame["time"],
        job=frame["job"],
        item=frame["item"],
        mode=LockMode(frame["mode"]),
        outcome=LockOutcome(frame["outcome"]),
        rule=frame["rule"],
        blockers=tuple(frame.get("blockers", ())),
    )
