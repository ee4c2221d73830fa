"""The TCP transport: NDJSON request/response over one connection class.

One :class:`LockServer` wraps one :class:`~repro.service.manager.LockManager`
behind ``loop.create_server``; every accepted socket gets the server end
of a :class:`~repro.service.connection.Connection`.  Connections are
cheap, and so are requests:

* **Eager dispatch.**  Each request line is decoded and dispatched on
  the receive callback's stack.  A request that does not park is
  answered without a task or a loop tick of its own; only one that
  parks (lock wait, commit gate) becomes a task, so a session blocked in
  the grant queue does not stall the connection's other sessions and a
  client may pipeline.
* **One write per chunk or tick.**  Every complete line of a received
  chunk is handled before anything is written; the responses — and any
  event frames pushed meanwhile — leave in one write, in order.
  Responses of parked requests leave on the tick they complete.  They
  are matched by ``id`` on the client side.
* **Backpressure.**  While a client does not read its responses the
  server stops reading its requests.

Crash safety for clients: sessions are owned by the connection that opened
them.  When a connection drops, its still-live sessions are aborted and
their locks released — a vanished client cannot wedge the lock table (the
service equivalent of the simulator's firm-deadline cleanup).
"""

from __future__ import annotations

import asyncio
from typing import Dict, FrozenSet, Optional

from repro.exceptions import ServiceError
from repro.service import wire
from repro.service.connection import Connection
from repro.service.manager import LockManager


class LockServer:
    """Serve a lock manager on a TCP socket.

    Usage::

        server = LockServer(manager, host="127.0.0.1", port=0)
        await server.start()          # port resolved (server.port)
        ...
        await server.close()          # drains connections, shuts manager down

    ``port=0`` binds an ephemeral port — the tests and the self-hosting
    loadgen mode rely on this.  ``manager`` is anything with the
    :class:`LockManager` surface; a
    :class:`~repro.service.sharding.coordinator.ShardedLockManager`
    serves identically (``repro serve --shards N``).
    """

    #: What ``hello`` grants: nothing.  Not ``events``, because only a
    #: shard host serves ``subscribe``; not ``shard-ops``, because the
    #: coordinator's calls into one shard (``prepare``, ``force_abort``,
    #: ``begin`` pins) would let any client fence or kill another
    #: connection's session.
    features: FrozenSet[str] = frozenset()

    def __init__(
        self,
        manager: LockManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.manager = manager
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        #: Open connection -> the sessions it opened that are still
        #: live, for disconnect cleanup.
        self._connections: Dict[Connection, Dict[int, None]] = {}

    async def start(self) -> None:
        """Bind and start accepting connections; resolves ``self.port``."""
        self._server = await asyncio.get_running_loop().create_server(
            self.new_connection, self.host, self.port
        )
        sockets = self._server.sockets or ()
        for sock in sockets:
            self.port = sock.getsockname()[1]
            break

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        """Block serving connections until cancelled (``repro serve``)."""
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Stop accepting, drop connections, shut the manager down."""
        if self._server is not None:
            self._server.close()
        await asyncio.gather(
            *(connection.close() for connection in list(self._connections))
        )
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        await self.manager.shutdown()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def new_connection(self) -> Connection:
        """The server end of one connection, not yet on a transport.

        The accept factory; tests and benchmarks hand it to a transport
        of their own (an in-memory pair, a ``socketpair``).
        """
        connection = Connection(
            handler=self._handle_request, on_lost=self._connection_lost
        )
        self._connections[connection] = {}
        return connection

    async def _handle_request(
        self, connection: Connection, request: dict
    ) -> dict:
        """Dispatch one request; subclasses intercept connection-scoped
        operations here (the shard host's ``subscribe``).  Anything
        passed to ``connection.send`` meanwhile joins the same output
        queue as the response, ahead of it.
        """
        response = await wire.dispatch_request(
            self.manager, request, self.features
        )
        owned = self._connections[connection]
        if request.get("op") == "begin":
            if response.get("ok"):
                owned[response["result"]["session"]] = None
            return response
        # Forget a session once a response reports it finished (its
        # commit or abort, or an operation the service aborted it
        # under): a long-lived connection owns only what is live.
        session_id = request.get("session")
        if (
            type(session_id) is int  # JSON may carry anything here
            and session_id in owned
            and not self.manager.is_live(session_id)
        ):
            del owned[session_id]
        return response

    def _connection_closed(self, connection: Connection) -> None:
        """Hook: the connection is gone; drop any push registrations."""

    async def _connection_lost(self, connection: Connection) -> None:
        self._connection_closed(connection)
        await self._abort_owned(self._connections.pop(connection))

    async def _abort_owned(self, owned: Dict[int, None]) -> None:
        """Abort live sessions whose connection disappeared.

        The connection's own parked requests were cancelled before this
        runs, which aborted their sessions; one still waiting here was
        parked by a request that arrived over *another* connection.
        """
        for session_id in owned:
            if not self.manager.is_live(session_id):
                continue
            session = self.manager.session(session_id)
            try:
                await self.manager.abort(session, "disconnect")
            except ServiceError:
                self.manager.force_abort(session, "disconnect")
