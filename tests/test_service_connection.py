"""Wire robustness of :class:`repro.service.connection.Connection`.

Socket-free (``make verify-service`` tier): the server end of a real
:class:`LockServer` / :class:`ShardHostServer` connection sits on an
in-memory transport (``tests/memory_transport.py``) and is fed raw
bytes, so segmentation, garbage, stalls and disconnects are exact and
repeatable.  Every case ends by showing what ROADMAP asks of a hostile
or broken peer: its sessions' locks are released and the server keeps
serving the others.
"""

import asyncio

import pytest

from repro.exceptions import (
    DeadlineExceeded,
    ProtocolVersionError,
    ServiceError,
    TransactionAborted,
)
from repro.model.priorities import assign_by_order
from repro.model.spec import TaskSet, TransactionSpec, read, write
from repro.service import LockManager, ServiceClient, ShardedLockManager
from repro.service import wire
from repro.service.connection import READ_SIZE, Connection
from repro.service.manager import SessionState
from repro.service.server import LockServer
from repro.service.sharding.procs.host import ShardHostServer
from tests.memory_transport import link


def catalog_rw() -> TaskSet:
    specs = [
        TransactionSpec("R", (read("x", 1.0),), offset=0.0),
        TransactionSpec("W", (write("x", 1.0), write("y", 1.0)), offset=0.0),
    ]
    return assign_by_order(specs)


def run(coro):
    return asyncio.run(coro)


async def settle(steps: int = 10) -> None:
    for _ in range(steps):
        await asyncio.sleep(0)


class RawPeer:
    """A peer that speaks raw bytes to one server-end connection.

    ``feed`` hands a chunk to the server end *synchronously*, exactly as
    the event loop would on a readable socket; ``documents`` decodes
    everything the server end has written back so far, in order.
    """

    def __init__(self, server: LockServer):
        self.connection = server.new_connection()
        self.client_end, self.server_end = link(
            asyncio.Protocol(), self.connection
        )

    def feed(self, data: bytes) -> None:
        self.server_end.feed(data)

    def send(self, **request) -> None:
        self.feed(wire.encode(request))

    @property
    def writes(self):
        return self.server_end.written

    def documents(self):
        return [
            wire.decode(line)
            for chunk in self.writes for line in chunk.splitlines()
        ]

    def response(self, request_id):
        matches = [d for d in self.documents() if d.get("id") == request_id]
        assert len(matches) == 1, matches
        return matches[0]

    async def hang_up(self) -> None:
        """Vanish, then wait until the server finished cleaning up."""
        self.client_end.close()
        await asyncio.wait_for(self.connection.wait_closed(), 5)


def client_of(server: LockServer) -> ServiceClient:
    """A :class:`ServiceClient` over the client end of the same class."""
    connection = Connection()
    link(connection, server.new_connection())
    return ServiceClient(connection.request, connection.close)


async def holding_read_lock(server: LockServer):
    """A session of another client that read ``x`` and holds the lock."""
    client = client_of(server)
    reader = await client.begin("R")
    await reader.read("x")
    return client, reader


class TestFraming:
    def test_request_split_across_segments(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            peer = RawPeer(server)
            line = wire.encode({"id": 1, "op": "ping"})
            for index in range(len(line) - 1):
                peer.feed(line[index:index + 1])
                assert peer.writes == []
            peer.feed(line[-1:])
            assert peer.response(1)["result"]["pong"] is True
            await server.close()

        run(body())

    def test_many_requests_in_one_segment_get_one_write(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            peer = RawPeer(server)
            peer.feed(b"".join(
                wire.encode({"id": n, "op": "ping"}) for n in range(20)
            ))
            # answered on the receive callback's stack: no tick, no
            # task, and one write for the whole chunk, in order
            assert len(peer.writes) == 1
            assert [d["id"] for d in peer.documents()] == list(range(20))
            assert not peer.connection._parked
            await server.close()

        run(body())

    def test_trailing_partial_line_waits_for_its_newline(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            peer = RawPeer(server)
            first = wire.encode({"id": 1, "op": "ping"})
            second = wire.encode({"id": 2, "op": "ping"})
            peer.feed(first + second[:7])
            assert [d["id"] for d in peer.documents()] == [1]
            peer.feed(second[7:])
            assert [d["id"] for d in peer.documents()] == [1, 2]
            await server.close()

        run(body())

    def test_line_longer_than_one_read_crosses_both_ways(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            value = "v" * (3 * READ_SIZE + 17)
            async with client_of(server) as client:
                txn = await client.begin("W")
                await txn.write("x", value)       # request > one read
                await txn.commit()
                txn = await client.begin("R")
                assert await txn.read("x") == value   # response > one read
                await txn.commit()
            await server.close()

        run(body())

    def test_blank_lines_are_skipped(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            peer = RawPeer(server)
            peer.feed(b"\n  \n\r\n" + wire.encode({"id": 1, "op": "ping"})
                      + b"\n")
            assert [d["id"] for d in peer.documents()] == [1]
            await server.close()

        run(body())

    @pytest.mark.parametrize("garbage", [
        b"this is not json\n",
        b"[1, 2, 3]\n",
        b'"a string"\n',
        b"\xff\xfe\n",
        b'{"id": 5}\n',
        b'{"id": 5, "op": "warp"}\n',
        b'{"id": 5, "op": "read", "session": [1], "item": "x"}\n',
    ])
    def test_malformed_lines_get_an_error_and_the_connection_stays_up(
        self, garbage
    ):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            peer = RawPeer(server)
            peer.feed(garbage + wire.encode({"id": 9, "op": "ping"}))
            first, second = peer.documents()
            assert first["ok"] is False
            assert first["error"]["kind"] == "bad-request"
            assert second == peer.response(9) and second["ok"]
            assert not peer.server_end.closing
            await server.close()

        run(body())


class TestBrokenPeers:
    """The connection goes; the locks it held come back; others carry on."""

    async def _holds_write_lock(self, server, peer):
        peer.send(id=1, op="begin", transaction="W")
        session = peer.response(1)["result"]["session"]
        peer.send(id=2, op="write", session=session, item="x", value=1)
        assert peer.response(2)["ok"]
        assert server.manager.table.writers_of("x")
        return session

    async def _others_are_served(self, server):
        assert not server.manager.table.writers_of("x")
        async with client_of(server) as survivor:
            txn = await survivor.begin("W")
            await txn.write("x", 2)
            assert (await txn.commit())["installed"] == ["x"]

    def test_line_over_the_limit_closes_the_connection(self, monkeypatch):
        monkeypatch.setattr(wire, "STREAM_LIMIT", 256)

        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            peer = RawPeer(server)
            session = await self._holds_write_lock(server, peer)
            peer.feed(b'{"id": 3, "op": "ping", "pad": "' + b"x" * 300)
            assert peer.server_end.closing
            await asyncio.wait_for(peer.connection.wait_closed(), 5)
            assert not server.manager.session(session).state.live
            await self._others_are_served(server)
            await server.close()

        run(body())

    def test_complete_line_over_the_limit_closes_too(self, monkeypatch):
        monkeypatch.setattr(wire, "STREAM_LIMIT", 256)

        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            peer = RawPeer(server)
            peer.feed(wire.encode({"id": 1, "op": "ping"})
                      + wire.encode({"id": 2, "op": "ping", "pad": "x" * 300})
                      + wire.encode({"id": 3, "op": "ping"}))
            # what was answered before the oversized line still left
            assert [d["id"] for d in peer.documents()] == [1]
            assert peer.server_end.closing
            await server.close()

        run(body())

    def test_mid_frame_disconnect_releases_the_locks(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            peer = RawPeer(server)
            session = await self._holds_write_lock(server, peer)
            peer.feed(b'{"id": 3, "op": "comm')  # ...and the line ends here
            await peer.hang_up()
            assert not server.manager.session(session).state.live
            assert server.manager.stats.client_aborts == 1
            assert server._connections == {}
            await self._others_are_served(server)
            await server.close()

        run(body())

    def test_disconnect_while_parked_aborts_only_that_session(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager)
            client, reader = await holding_read_lock(server)
            peer = RawPeer(server)
            peer.send(id=1, op="begin", transaction="W")
            session = manager.session(peer.response(1)["result"]["session"])
            peer.send(id=2, op="write", session=session.id, item="x", value=1)
            assert session.state is SessionState.WAITING
            assert len(peer.connection._parked) == 1
            await peer.hang_up()
            assert session.state is SessionState.ABORTED
            assert not manager.parks
            # the session it was waiting on is untouched and finishes
            assert (await reader.commit())["installed"] == []
            await client.close()
            await self._others_are_served(server)
            await server.close()

        run(body())

    def test_session_parked_by_another_connection_is_aborted_too(self):
        """The owner vanishes while a *different* connection has its
        session parked: no cancellation reaches that request, so the
        cleanup must abort a WAITING session itself."""
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager)
            client, reader = await holding_read_lock(server)
            owner, other = RawPeer(server), RawPeer(server)
            owner.send(id=1, op="begin", transaction="W")
            session = manager.session(owner.response(1)["result"]["session"])
            other.send(id=2, op="write", session=session.id, item="x",
                       value=1)
            assert session.state is SessionState.WAITING
            await owner.hang_up()
            assert session.state is SessionState.ABORTED
            await settle()
            assert other.response(2)["error"]["kind"] == "aborted"
            await reader.commit()
            await client.close()
            await server.close()

        run(body())

    def test_sharded_manager_cleanup_aborts_a_session_in_flight(self):
        async def body():
            manager = ShardedLockManager(catalog_rw(), "pcp-da", shards=2,
                                         partitioner="hash")
            server = LockServer(manager)
            client, reader = await holding_read_lock(server)
            owner, other = RawPeer(server), RawPeer(server)
            owner.send(id=1, op="begin", transaction="W")
            session = manager.session(owner.response(1)["result"]["session"])
            other.send(id=2, op="write", session=session.id, item="x",
                       value=1)
            assert session.in_flight
            await owner.hang_up()
            assert session.state is SessionState.ABORTED
            await settle()
            assert other.response(2)["error"]["kind"] == "aborted"
            await reader.commit()
            await client.close()
            await server.close()

        run(body())

    def test_server_close_drops_connections_and_fails_their_clients(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager)
            client, reader = await holding_read_lock(server)
            await asyncio.wait_for(server.close(), 5)
            assert not manager.session(reader.id).state.live
            await settle()
            with pytest.raises(ServiceError):
                await client.ping()
            await client.close()

        run(body())


class TestOwnedSessions:
    def test_finished_sessions_are_forgotten(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            peer = RawPeer(server)
            owned = server._connections[peer.connection]
            peer.send(id=1, op="begin", transaction="W")
            peer.send(id=2, op="begin", transaction="R")
            first = peer.response(1)["result"]["session"]
            second = peer.response(2)["result"]["session"]
            assert list(owned) == [first, second]
            peer.send(id=3, op="write", session=first, item="x", value=1)
            assert list(owned) == [first, second]
            peer.send(id=4, op="commit", session=first)
            assert list(owned) == [second]
            peer.send(id=5, op="abort", session=second)
            assert owned == {}
            # a refused abort leaves nothing behind either
            peer.send(id=6, op="abort", session=second)
            assert peer.response(6)["error"]["kind"] == "session-state"
            assert owned == {}
            await server.close()

        run(body())

    def test_session_aborted_under_an_operation_is_forgotten(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager)
            peer = RawPeer(server)
            owned = server._connections[peer.connection]
            peer.send(id=1, op="begin", transaction="R")
            session = peer.response(1)["result"]["session"]
            manager.force_abort(manager.session(session), "policy kill")
            assert list(owned) == [session]
            peer.send(id=2, op="read", session=session, item="x")
            assert not peer.response(2)["ok"]
            assert owned == {}
            await server.close()

        run(body())


class TestBackpressure:
    def test_stalled_reader_pauses_requests_until_it_drains(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            peer = RawPeer(server)
            peer.send(id=1, op="ping")
            # the transport's write buffer passed its high-water mark
            peer.connection.pause_writing()
            assert not peer.server_end.is_reading()
            peer.send(id=2, op="ping")       # arrives, but is held
            await settle()
            assert [d["id"] for d in peer.documents()] == [1]
            peer.connection.resume_writing()
            assert peer.server_end.is_reading()
            await settle()
            assert [d["id"] for d in peer.documents()] == [1, 2]
            await server.close()

        run(body())

    def test_client_end_keeps_reading_while_its_writes_are_paused(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            connection = Connection()
            client_end, _ = link(connection, server.new_connection())
            connection.pause_writing()
            assert client_end.is_reading()
            response = await connection.request({"id": 1, "op": "ping"})
            assert response["ok"]
            await connection.close()
            await server.close()

        run(body())


class TestFrameOrder:
    """Every frame precedes the response of the op that caused it."""

    async def _subscribed(self, server):
        peer = RawPeer(server)
        peer.send(id=0, op="subscribe")
        assert peer.response(0)["result"]["events"] == ["churn", "decision"]
        return peer

    @staticmethod
    def _index(documents, **fields):
        matches = [
            index for index, document in enumerate(documents)
            if all(document.get(k) == v for k, v in fields.items())
        ]
        assert len(matches) == 1, (fields, documents)
        return matches[0]

    def test_immediate_operation(self):
        async def body():
            server = ShardHostServer(LockManager(catalog_rw(), "pcp-da"))
            peer = await self._subscribed(server)
            peer.send(id=1, op="begin", transaction="R")
            session = peer.response(1)["result"]["session"]
            before = len(peer.writes)
            peer.send(id=2, op="read", session=session, item="x")
            # frame and response left together, frame first
            assert len(peer.writes) == before + 1
            documents = peer.documents()
            assert (
                self._index(documents, event="decision", job="R#0")
                < self._index(documents, id=2)
            )
            peer.send(id=3, op="commit", session=session)
            documents = peer.documents()
            assert (
                self._index(documents, event="churn", kind="finish")
                < self._index(documents, id=3)
            )
            await server.close()

        run(body())

    def test_parked_operation(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = ShardHostServer(manager)
            peer = await self._subscribed(server)
            peer.send(id=1, op="begin", transaction="R")
            reader = peer.response(1)["result"]["session"]
            peer.send(id=2, op="read", session=reader, item="x")
            peer.send(id=3, op="begin", transaction="W")
            writer = peer.response(3)["result"]["session"]
            peer.send(id=4, op="write", session=writer, item="x", value=1)
            # parked: its wait frame left at once, its response did not
            documents = peer.documents()
            self._index(documents, event="churn", kind="wait", job="W#0")
            assert not [d for d in documents if d.get("id") == 4]
            peer.send(id=5, op="commit", session=reader)
            await settle()
            documents = peer.documents()
            granted = self._index(
                documents, event="decision", job="W#0", outcome="granted"
            )
            assert self._index(documents, event="churn", kind="unwait",
                               job="W#0") < self._index(documents, id=4)
            assert granted < self._index(documents, id=4)
            assert documents[self._index(documents, id=4)]["ok"]
            await server.close()

        run(body())

    def test_frames_go_only_to_subscribers_and_stop_at_disconnect(self):
        async def body():
            server = ShardHostServer(LockManager(catalog_rw(), "pcp-da"))
            subscriber = await self._subscribed(server)
            plain = RawPeer(server)
            plain.send(id=1, op="begin", transaction="R")
            session = plain.response(1)["result"]["session"]
            plain.send(id=2, op="read", session=session, item="x")
            assert not [d for d in plain.documents() if "event" in d]
            await settle()
            assert [d for d in subscriber.documents() if "event" in d]
            await subscriber.hang_up()
            assert server._subscribers == {}
            await server.close()

        run(body())


class TestDeadlines:
    def test_deadline_expires_on_a_request_parked_over_a_connection(self):
        """``asyncio.wait_for`` inside the manager, under the eager
        step: there is no current task on the receive callback's stack,
        which 3.12's ``asyncio.timeout`` refuses — ``eager_start`` must
        give the coroutine one there."""
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager)
            holder, reader = await holding_read_lock(server)
            async with client_of(server) as client:
                txn = await client.begin("W", deadline_s=0.05)
                with pytest.raises(DeadlineExceeded):
                    await asyncio.wait_for(txn.write("x", 1), 5)
                assert manager.stats.deadline_aborts == 1
                assert not manager.session(txn.id).state.live
            await reader.commit()
            await holder.close()
            await server.close()

        run(body())

    def test_deadline_expires_at_a_sharded_coordinator(self):
        async def body():
            manager = ShardedLockManager(catalog_rw(), "pcp-da", shards=2,
                                         partitioner="hash")
            server = LockServer(manager)
            holder, reader = await holding_read_lock(server)
            async with client_of(server) as client:
                txn = await client.begin("W", deadline_s=0.05)
                with pytest.raises(DeadlineExceeded):
                    await asyncio.wait_for(txn.write("x", 1), 5)
                assert not manager.session(txn.id).state.live
            await reader.commit()
            await holder.close()
            await server.close()

        run(body())

    def test_parked_request_is_granted_when_its_blocker_commits(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            holder, reader = await holding_read_lock(server)
            async with client_of(server) as client:
                txn = await client.begin("W")
                writing = asyncio.ensure_future(txn.write("x", 1))
                await settle()
                assert not writing.done()
                await reader.commit()
                await asyncio.wait_for(writing, 5)
                assert (await txn.commit())["installed"] == ["x"]
            await holder.close()
            await server.close()

        run(body())


class TestClientEnd:
    def test_version_skewed_hello_is_refused_with_both_versions_named(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            async with client_of(server) as client:
                with pytest.raises(ProtocolVersionError) as info:
                    await client.request("hello", version="repro-service/1")
                assert "repro-service/1" in str(info.value)
                assert wire.PROTOCOL_VERSION in str(info.value)
                # ...and the connection is still good for the right one
                assert (await client.hello())["version"] == (
                    wire.PROTOCOL_VERSION
                )
            await server.close()

        run(body())

    def test_requests_of_one_tick_leave_in_one_write(self):
        async def body():
            server = LockServer(LockManager(catalog_rw(), "pcp-da"))
            connection = Connection()
            client_end, server_end = link(connection, server.new_connection())
            futures = [
                connection.request({"id": n, "op": "ping"}) for n in range(8)
            ]
            connection.send({"id": 99, "op": "ping"})   # posted
            assert client_end.written == []             # not before the tick
            responses = await asyncio.gather(*futures)
            assert [r["id"] for r in responses] == list(range(8))
            assert len(client_end.written) == 1
            assert len(server_end.written) == 1
            # the posted request was answered and its response dropped
            assert b'"id":99' in server_end.written[0]
            assert connection._pending == {}
            await connection.close()
            await server.close()

        run(body())

    def test_events_reach_on_event_in_stream_order(self):
        async def body():
            server = ShardHostServer(LockManager(catalog_rw(), "pcp-da"))
            seen = []
            connection = Connection(on_event=seen.append)
            link(connection, server.new_connection())

            async def call(request_id, **request):
                response = await connection.request(
                    {"id": request_id, **request}
                )
                seen.append(response)
                return wire.unwrap(response)

            await call(1, op="subscribe", events=["decision"])
            session = (await call(2, op="begin", transaction="R"))["session"]
            await call(3, op="read", session=session, item="x")
            kinds = [d.get("event") or d["id"] for d in seen]
            assert kinds == [1, 2, "decision", 3]
            await connection.close()
            await server.close()

        run(body())

    def test_lost_connection_fails_pending_and_later_requests(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager)
            holder, reader = await holding_read_lock(server)
            connection = Connection(label="probe")
            client_end, _ = link(connection, server.new_connection())
            client = ServiceClient(connection.request, connection.close)
            txn = await client.begin("W")
            writing = asyncio.ensure_future(txn.write("x", 1))
            await settle()
            assert not writing.done()
            client_end.peer.close()          # the server side goes away
            with pytest.raises(ServiceError) as info:
                await asyncio.wait_for(writing, 5)
            assert "probe: connection lost" in str(info.value)
            with pytest.raises(ServiceError):
                await client.ping()
            await client.close()
            await reader.commit()
            await holder.close()
            await server.close()

        run(body())

    def test_garbage_from_the_server_drops_the_connection(self):
        async def body():
            connection = Connection()
            client_end, _ = link(connection, asyncio.Protocol())
            pending = connection.request({"id": 1, "op": "ping"})
            client_end.feed(b"<html>502 Bad Gateway</html>\n")
            with pytest.raises(ServiceError):
                await asyncio.wait_for(pending, 5)
            with pytest.raises(ServiceError):
                connection.request({"id": 2, "op": "ping"})

        run(body())

    def test_unwrap_maps_results_and_error_kinds(self):
        with pytest.raises(TransactionAborted):
            wire.unwrap(wire.error_response(1, "aborted", "T1#0: deadlock"))
        assert wire.unwrap(wire.ok_response(1, {"a": 1})) == {"a": 1}
        assert wire.unwrap({"id": 1, "ok": True}) == {}
