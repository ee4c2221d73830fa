"""An in-memory transport pair for ``asyncio.Protocol`` ends.

Socket-free stand-in for a TCP connection: :func:`link` joins two
protocols so that one end's ``transport.write()`` feeds the other end's
``data_received`` (``get_buffer`` / ``buffer_updated`` for a
``BufferedProtocol``) on a later loop tick (``call_soon``, like a
socket — never re-entrantly), ``close()`` delivers ``connection_lost``
to both ends, and ``pause_reading`` holds deliveries back.
Segmentation is under the test's control: every ``write`` arrives as
one chunk (sliced only at the receiver's buffer size), and
:meth:`MemoryTransport.feed` injects arbitrary chunks.
"""

import asyncio
from typing import List, Optional, Tuple


class MemoryTransport(asyncio.Transport):
    """One direction pair of :func:`link`; see the module docstring."""

    def __init__(self, protocol: asyncio.Protocol):
        super().__init__()
        self.protocol = protocol
        self.peer: Optional["MemoryTransport"] = None
        self.closing = False
        self.lost = False
        self.reading = True
        #: Every chunk written through this end, for assertions.
        self.written: List[bytes] = []
        self._held: List[bytes] = []
        self._loop = asyncio.get_running_loop()

    # -- writing ---------------------------------------------------------
    def write(self, data: bytes) -> None:
        if self.closing:
            return
        data = bytes(data)
        self.written.append(data)
        self._loop.call_soon(self.peer.feed, data)

    def feed(self, data: bytes) -> None:
        """Deliver one chunk to this end's protocol (or hold it)."""
        if self.lost:
            return
        if not self.reading:
            self._held.append(data)
            return
        if not isinstance(self.protocol, asyncio.BufferedProtocol):
            self.protocol.data_received(data)
            return
        while data:  # what the loop does around ``recv_into``
            buffer = self.protocol.get_buffer(len(data))
            taken = min(len(buffer), len(data))
            buffer[:taken] = data[:taken]
            self.protocol.buffer_updated(taken)
            data = data[taken:]

    # -- flow control ----------------------------------------------------
    def pause_reading(self) -> None:
        self.reading = False

    def resume_reading(self) -> None:
        self.reading = True
        held, self._held = self._held, []
        for data in held:
            self._loop.call_soon(self.feed, data)

    def is_reading(self) -> bool:
        return self.reading

    # -- closing ---------------------------------------------------------
    def is_closing(self) -> bool:
        return self.closing

    def close(self) -> None:
        if self.closing:
            return
        self.closing = True
        self._loop.call_soon(self._lose)
        # Queued after this end's writes: the peer sees them, then EOF.
        self._loop.call_soon(self.peer.close)

    abort = close

    def _lose(self) -> None:
        if not self.lost:
            self.lost = True
            self.protocol.connection_lost(None)


def link(
    client: asyncio.Protocol, server: asyncio.Protocol
) -> Tuple[MemoryTransport, MemoryTransport]:
    """Connect two protocols back to back; returns their transports."""
    client_end, server_end = MemoryTransport(client), MemoryTransport(server)
    client_end.peer, server_end.peer = server_end, client_end
    server.connection_made(server_end)
    client.connection_made(client_end)
    return client_end, server_end
