"""Async client library for the lock-manager service.

One :class:`ServiceClient` speaks the wire schema of
:mod:`repro.service.wire` over a pluggable transport:

* :func:`in_process_client` — calls ``dispatch_request`` directly on a
  local :class:`~repro.service.manager.LockManager`.  No sockets, no
  serialization ambiguity: ideal for tests and for embedding the service
  in another asyncio program.
* :func:`connect_tcp` — a real NDJSON-over-TCP connection to a
  ``repro serve`` instance: the client end of
  :class:`~repro.service.connection.Connection`.  Requests carry
  correlation ids and responses are routed to their futures as they
  arrive, so many sessions can be driven concurrently over one
  connection; every request issued within one event-loop tick leaves in
  one write.

Wire errors are re-raised as the matching
:class:`~repro.exceptions.ServiceError` subclass (``kind`` → class via
``wire.ERROR_TYPES``), so client code handles ``TransactionAborted`` or
``DeadlineExceeded`` identically whether the manager is in-process or
remote.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Awaitable, Callable, Dict, List, Optional

from repro.exceptions import ServiceError
from repro.service import wire
from repro.service.connection import Connection
from repro.service.manager import LockManager

#: A transport: takes a request document, returns the response document.
Transport = Callable[[Dict[str, Any]], Awaitable[Dict[str, Any]]]


class ClientSession:
    """Handle for one open transaction on the service.

    Thin sugar over the session-scoped wire operations; also usable as an
    async context manager that aborts on exceptional exit and leaves
    committed/aborted sessions alone::

        async with await client.begin("T2") as txn:
            v = await txn.read("x")
            await txn.write("y", v + 1)
            await txn.commit()
    """

    def __init__(self, client: "ServiceClient", session_id: int, name: str,
                 priority: int):
        self.client = client
        self.id = session_id
        self.name = name
        self.priority = priority
        self.finished = False

    async def read(self, item: str) -> Any:
        """Read ``item`` through this session; returns the bound value."""
        result = await self.client.request("read", session=self.id, item=item)
        return result["value"]

    async def write(self, item: str, value: Any) -> None:
        """Buffer a write of ``item`` in the session workspace."""
        await self.client.request("write", session=self.id, item=item,
                                  value=value)

    async def commit(self) -> Dict[str, Any]:
        """Commit; returns the install summary (items, latency, blocking)."""
        result = await self.client.request("commit", session=self.id)
        self.finished = True
        return result

    async def abort(self, reason: str = "client") -> None:
        """Abort the session, discarding its buffered writes."""
        await self.client.request("abort", session=self.id, reason=reason)
        self.finished = True

    async def __aenter__(self) -> "ClientSession":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        if self.finished:
            return
        if isinstance(exc, ServiceError):
            # The service already tore the session down (abort/deadline).
            self.finished = True
            return
        try:
            await self.abort("context-exit")
        except ServiceError:
            pass  # raced with a service-side abort


class ServiceClient:
    """Request/response client over an arbitrary transport."""

    def __init__(self, transport: Transport,
                 closer: Optional[Callable[[], Awaitable[None]]] = None):
        self._transport = transport
        self._closer = closer
        self._ids = itertools.count(1)

    async def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """Issue one wire operation; raises the mapped service error."""
        document = {"id": next(self._ids), "op": op, **params}
        return wire.unwrap(await self._transport(document))

    # -- convenience wrappers ------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns version and protocol name."""
        return await self.request("ping")

    async def hello(self, *, features: tuple = ("events",)) -> Dict[str, Any]:
        """Negotiate protocol version and features with the server.

        Raises :class:`~repro.exceptions.ProtocolVersionError` when the
        server speaks a different wire era; otherwise returns the
        server's version and the granted feature subset.
        """
        return await self.request(
            "hello", version=wire.PROTOCOL_VERSION, features=list(features)
        )

    async def catalog(self) -> Dict[str, Any]:
        """The service's transaction catalog (specs and operations)."""
        return await self.request("catalog")

    async def begin(self, transaction: str, *,
                    deadline_s: Optional[float] = None) -> ClientSession:
        """Open one instance of ``transaction``; returns its session handle."""
        params: Dict[str, Any] = {"transaction": transaction}
        if deadline_s is not None:
            params["deadline_s"] = deadline_s
        result = await self.request("begin", **params)
        return ClientSession(self, result["session"], result["name"],
                             result["priority"])

    async def stats(self) -> Dict[str, Any]:
        """The full service-side stats snapshot."""
        return await self.request("stats")

    async def topology(self) -> Dict[str, Any]:
        """The deployment's shard topology (partitioner and assignment).

        Unsharded services answer with one implicit shard, so callers
        need not know in advance which kind of deployment they reached.
        """
        return await self.request("topology")

    async def history(self) -> List[Dict[str, Any]]:
        """The observable history rows, in global order."""
        return (await self.request("history"))["events"]

    async def close(self) -> None:
        """Tear the transport down (idempotent)."""
        if self._closer is not None:
            await self._closer()
            self._closer = None

    async def __aenter__(self) -> "ServiceClient":
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()


def in_process_client(manager: LockManager) -> ServiceClient:
    """A client whose transport is a direct call into ``manager``.

    Runs the exact dispatch code the TCP server runs — only the socket is
    skipped — so in-process tests exercise the full service surface.
    Each request still crosses the event loop once: over TCP every op is
    a socket round-trip that lets other connections run, and without the
    equivalent yield here an in-process client would execute whole
    transactions back-to-back — no interleaving, so no contention, which
    is not the concurrency profile the wire tests mean to exercise.
    """

    async def transport(request: Dict[str, Any]) -> Dict[str, Any]:
        await asyncio.sleep(0)
        return await wire.dispatch_request(manager, request)

    return ServiceClient(transport)


async def connect_tcp(
    host: str,
    port: int,
    *,
    on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> ServiceClient:
    """Open an NDJSON-over-TCP connection to a running lock server.

    ``on_event`` receives server-pushed frames (documents with no
    correlation id — the v2 event stream a shard host emits after a
    ``subscribe``).  Without it frames are dropped, which keeps plain
    clients compatible with event-capable servers.
    """
    connection = Connection(on_event=on_event)
    await asyncio.get_running_loop().create_connection(
        lambda: connection, host, port
    )
    return ServiceClient(connection.request, connection.close)
