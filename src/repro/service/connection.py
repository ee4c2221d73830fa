"""One NDJSON connection: the transport of server, client and shard proxy.

:class:`Connection` is an :class:`asyncio.BufferedProtocol` that frames
newline-delimited JSON as chunks arrive and handles every complete line
of a received chunk before anything is written.

* The **server end** (``handler`` given) runs each request's first step
  *eagerly*, on the receive callback's stack
  (:func:`repro.service.eager.eager_start`): a request that does not
  park — nearly all of them — is decoded, dispatched and answered
  without a task or a loop tick of its own.  Only a request that parks
  (a lock wait, a commit gate) becomes a task; its response is queued
  when it finishes.
* The **client end** (:meth:`request`) matches responses
  to awaiting futures by ``id`` and hands server-pushed event frames to
  ``on_event``, in stream order.

Both ends write the same way: :meth:`send` appends to one output queue,
and the whole queue — responses, event frames, requests, posts — leaves
in a single ``transport.write``, at the end of the received chunk or,
outside one, on the next loop tick.  One queue in FIFO order is also
what puts every event frame ahead of the response of the operation that
caused it.  Backpressure: while the peer of a server end does not read
(``pause_writing``), the server end stops reading requests from it.
"""

from __future__ import annotations

import asyncio
import functools
from typing import Any, Callable, Coroutine, Dict, List, Optional, Set

from repro.exceptions import ServiceError
from repro.service import wire
from repro.service.eager import eager_start

#: Bytes one read may take.  The loop reads into one buffer the
#: connection owns (``recv_into``): no allocation per read, where a
#: plain ``Protocol`` is handed a fresh 256 KiB ``recv`` buffer each time
#: (measured at 14 us per read when the allocator serves it by ``mmap``).
READ_SIZE = 64 * 1024

#: Server end: the connection and one request document in, a coroutine
#: for the response out.
Handler = Callable[
    ["Connection", Dict[str, Any]], Coroutine[Any, Any, Dict[str, Any]]
]


class Connection(asyncio.BufferedProtocol):
    """One end of an NDJSON connection (see the module docstring).

    ``handler`` makes this a server end; ``on_event`` receives the
    frames pushed to a client end (dropped without it, which keeps
    plain clients compatible with event-capable servers); ``on_lost``
    is awaited once, after the transport is gone and every parked
    request has observed its cancellation.  ``label`` prefixes the
    errors raised to callers.
    """

    def __init__(
        self,
        *,
        handler: Optional[Handler] = None,
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
        on_lost: Optional[
            Callable[["Connection"], Coroutine[Any, Any, None]]
        ] = None,
        label: str = "connection",
    ) -> None:
        self._handler = handler
        self._on_event = on_event
        self._on_lost = on_lost
        self.label = label
        self._transport: Optional[asyncio.Transport] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inbox = memoryview(bytearray(READ_SIZE))
        #: Segments of a line whose newline has not arrived yet.
        self._partial: List[bytes] = []
        self._partial_size = 0
        #: Documents queued for the next write, in order.
        self._out: List[Dict[str, Any]] = []
        #: A flush is already due (end of chunk, or a scheduled tick).
        self._flush_due = False
        #: Client end: correlation id -> future of an awaited request.
        self._pending: Dict[Any, "asyncio.Future[Dict[str, Any]]"] = {}
        #: Server end: requests that parked and became tasks.
        self._parked: Set["asyncio.Future[Dict[str, Any]]"] = set()
        #: Resolved when the cleanup after ``connection_lost`` is done.
        self._lost: Optional["asyncio.Future[None]"] = None
        self._cleanup: Optional["asyncio.Future[None]"] = None

    # ------------------------------------------------------------------
    # Transport callbacks
    # ------------------------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        """The transport is usable: remember it and its loop."""
        self._transport = transport  # type: ignore[assignment]
        self._loop = asyncio.get_running_loop()
        self._lost = self._loop.create_future()

    def get_buffer(self, sizehint: int) -> memoryview:
        """Where the loop puts the next read (always the same buffer)."""
        return self._inbox

    def buffer_updated(self, nbytes: int) -> None:
        """Handle every complete line of the chunk, then write once."""
        data = self._inbox[:nbytes].tobytes()
        if b"\n" not in data:
            self._partial.append(data)
            self._partial_size += len(data)
            if self._partial_size > wire.STREAM_LIMIT:
                self._drop()
            return
        if self._partial:
            self._partial.append(data)
            data = b"".join(self._partial)
            self._partial.clear()
        *lines, rest = data.split(b"\n")
        self._flush_due = True
        try:
            for line in lines:
                if len(line) > wire.STREAM_LIMIT:
                    self._drop()
                    return
                if line.strip():
                    self._line_received(line)
        finally:
            self._flush()
        self._partial_size = len(rest)
        if rest:
            self._partial.append(rest)

    def _line_received(self, line: bytes) -> None:
        try:
            document = wire.decode(line)
        except ValueError as exc:
            if self._handler is None:
                self._drop()  # a client cannot resynchronise on garbage
            else:
                self.send(wire.error_response(None, "bad-request", str(exc)))
            return
        if self._handler is not None:
            self._dispatch(document)
        elif wire.is_event(document):
            if self._on_event is not None:
                self._on_event(document)
        else:
            future = self._pending.pop(document.get("id"), None)
            if future is not None and not future.done():
                future.set_result(document)

    def _dispatch(self, request: Dict[str, Any]) -> None:
        """Server end: answer ``request`` now, or park it as a task."""
        try:
            done, outcome = eager_start(self._handler(self, request))
        except Exception as exc:  # noqa: BLE001 - the connection stays up
            done, outcome = True, wire.exception_to_error(
                request.get("id"), exc
            )
        if done:
            self.send(outcome)
        else:
            self._parked.add(outcome)
            outcome.add_done_callback(
                functools.partial(self._parked_done, request.get("id"))
            )

    def _parked_done(
        self, request_id: Any, task: "asyncio.Future[Dict[str, Any]]"
    ) -> None:
        self._parked.discard(task)
        if task.cancelled():
            return
        exc = task.exception()
        self.send(
            task.result() if exc is None
            else wire.exception_to_error(request_id, exc)
        )

    def pause_writing(self) -> None:
        """The peer stopped reading: a server end stops taking requests.

        A client end keeps reading — its requests are bounded by the
        callers awaiting them, and two ends that both stopped reading
        would never start again.
        """
        if self._handler is not None and self._transport is not None:
            self._transport.pause_reading()

    def resume_writing(self) -> None:
        """The write buffer drained: read requests again."""
        if self._handler is not None and self._transport is not None:
            self._transport.resume_reading()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        """Fail the awaited requests, cancel the parked ones, clean up."""
        self._transport = None
        self._out.clear()
        failure = ServiceError(
            f"{self.label}: connection lost"
            + (f": {exc}" if exc is not None else "")
        )
        for future in self._pending.values():
            if not future.done():
                future.set_exception(failure)
        self._pending.clear()
        for task in self._parked:
            task.cancel()
        self._cleanup = asyncio.ensure_future(self._finish_close())

    async def _finish_close(self) -> None:
        try:
            if self._parked:
                await asyncio.wait(self._parked)
            if self._on_lost is not None:
                await self._on_lost(self)
        finally:
            self._lost.set_result(None)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def send(self, document: Dict[str, Any]) -> None:
        """Queue ``document`` for the next write (dropped once closed).

        A request sent this way is fire-and-forget: its response, which
        no future awaits, is discarded on arrival.
        """
        if self._transport is None:
            return
        self._out.append(document)
        if not self._flush_due:
            self._flush_due = True
            self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        self._flush_due = False
        if self._out and self._transport is not None:
            batch = b"".join([self._line(document) for document in self._out])
            self._out.clear()
            self._transport.write(batch)

    def _line(self, document: Dict[str, Any]) -> bytes:
        """``document`` as one NDJSON line — or, when it is longer than
        the peer accepts (``wire.STREAM_LIMIT``) and the peer would have
        to drop the connection, the error that answers its request
        instead: a server end sends a ``service`` error response, a
        client end fails the awaiting future.  The connection and its
        sessions survive.
        """
        line = wire.encode(document)
        if len(line) <= wire.STREAM_LIMIT + 1:  # the newline is free
            return line
        message = (
            f"{self.label}: a {len(line) - 1}-byte line exceeds the "
            f"{wire.STREAM_LIMIT}-byte stream limit"
        )
        if self._handler is not None:
            return wire.encode(
                wire.error_response(document.get("id"), "service", message)
            )
        future = self._pending.pop(document.get("id"), None)
        if future is not None and not future.done():
            future.set_exception(ServiceError(message))
        return b""

    def _drop(self) -> None:
        """Write what is queued and close; nothing is sent or read after.

        Also the answer to a stream that cannot be resynchronised: a
        line over ``wire.STREAM_LIMIT``, garbage from a server.
        """
        self._flush()
        transport, self._transport = self._transport, None
        if transport is not None:
            transport.close()
        self._partial.clear()

    # ------------------------------------------------------------------
    # The client end
    # ------------------------------------------------------------------
    def request(
        self, document: Dict[str, Any]
    ) -> "asyncio.Future[Dict[str, Any]]":
        """Send one request; the returned future resolves to its response.

        ``document`` carries the caller's correlation ``id``.  Raises
        :class:`ServiceError` when the connection is already gone; the
        future fails with it when the connection goes first.
        """
        if self._transport is None:
            raise ServiceError(f"{self.label}: connection lost")
        future = self._loop.create_future()
        self._pending[document["id"]] = future
        self.send(document)
        return future

    async def close(self) -> None:
        """Flush, close, and wait for the cleanup to finish (idempotent)."""
        self._drop()
        await self.wait_closed()

    async def wait_closed(self) -> None:
        """Wait until the connection is gone and cleaned up after."""
        if self._lost is not None:
            await asyncio.shield(self._lost)
