"""Wire-protocol and TCP-transport tests for the lock-manager service.

Covers the NDJSON codec, the exception → wire-error mapping, the shared
``dispatch_request`` entry point, and the real TCP transport (pipelining,
error re-raising, disconnect cleanup) over a loopback ``LockServer`` on
an ephemeral port.
"""

import asyncio

import pytest

from repro.exceptions import (
    AdmissionError,
    DeadlineExceeded,
    ProtocolVersionError,
    ServiceError,
    SessionStateError,
    SpecificationError,
    TransactionAborted,
)
from repro.model.priorities import assign_by_order
from repro.model.spec import TaskSet, TransactionSpec, read, write
from repro.service import LockManager, ServiceConfig, ShardedLockManager
from repro.service import wire
from repro.service.client import connect_tcp, in_process_client
from repro.service.server import LockServer
from repro.verify.stress import StressSpec, make_catalog


def catalog_rw() -> TaskSet:
    specs = [
        TransactionSpec("T1", (read("x", 1.0),), offset=0.0),
        TransactionSpec("T2", (write("x", 1.0),), offset=0.0),
        TransactionSpec("T3", (read("x", 1.0), write("y", 1.0)), offset=0.0),
    ]
    return assign_by_order(specs)


def run(coro):
    return asyncio.run(coro)


class TestCodec:
    def test_encode_decode_round_trip(self):
        document = {"id": 7, "op": "read", "session": 3, "item": "x"}
        line = wire.encode(document)
        assert line.endswith(b"\n")
        assert b"\n" not in line[:-1]
        assert wire.decode(line) == document

    def test_decode_rejects_non_object(self):
        with pytest.raises(ValueError):
            wire.decode(b"[1, 2, 3]\n")

    def test_decode_rejects_bad_json(self):
        with pytest.raises(ValueError):
            wire.decode(b"{not json}\n")

    def test_error_types_cover_service_hierarchy(self):
        assert wire.ERROR_TYPES == {
            "service": ServiceError,
            "admission": AdmissionError,
            "session-state": SessionStateError,
            "aborted": TransactionAborted,
            "deadline": DeadlineExceeded,
            "version": ProtocolVersionError,
        }

    def test_exception_mapping(self):
        doc = wire.exception_to_error(1, TransactionAborted("boom"))
        assert doc["error"]["kind"] == "aborted"
        doc = wire.exception_to_error(2, SpecificationError("bad"))
        assert doc["error"]["kind"] == "bad-request"
        doc = wire.exception_to_error(3, KeyError("item"))
        assert doc["error"]["kind"] == "bad-request"
        doc = wire.exception_to_error(4, RuntimeError("oops"))
        assert doc["error"]["kind"] == "internal"
        assert "RuntimeError" in doc["error"]["message"]


class TestDispatch:
    def test_ping_reports_version_and_protocol(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            response = await wire.dispatch_request(
                manager, {"id": 1, "op": "ping"}
            )
            assert response["ok"]
            assert response["result"]["version"] == wire.PROTOCOL_VERSION
            assert response["result"]["protocol"] == "pcp-da"
            await manager.shutdown()

        run(body())

    def test_full_transaction_via_documents(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            begin = await wire.dispatch_request(
                manager, {"id": 1, "op": "begin", "transaction": "T2"}
            )
            assert begin["ok"]
            session_id = begin["result"]["session"]
            wrote = await wire.dispatch_request(
                manager,
                {"id": 2, "op": "write", "session": session_id,
                 "item": "x", "value": 99},
            )
            assert wrote["ok"] and wrote["result"]["buffered"]
            committed = await wire.dispatch_request(
                manager, {"id": 3, "op": "commit", "session": session_id}
            )
            assert committed["ok"]
            assert committed["result"]["installed"] == ["x"]
            await manager.shutdown()

        run(body())

    @staticmethod
    def begin_response(manager, **fields):
        async def body():
            response = await wire.dispatch_request(
                manager, {"id": 1, "op": "begin", "transaction": "T1",
                          **fields},
            )
            await manager.shutdown()
            return response

        return run(body())

    def test_begin_reusing_a_pinned_instance_is_bad_request(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            request = {"id": 1, "op": "begin", "transaction": "T1",
                       "instance": 0}
            first = await wire.dispatch_request(manager, request)
            second = await wire.dispatch_request(manager, request)
            drawn = await wire.dispatch_request(
                manager, {"id": 2, "op": "begin", "transaction": "T1"}
            )
            await manager.shutdown()
            return first, second, drawn

        first, second, drawn = run(body())
        assert first["ok"] and first["result"]["name"] == "T1#0"
        assert second["error"]["kind"] == "bad-request"
        assert drawn["result"]["name"] == "T1#1"

    def test_begin_with_a_negative_instance_is_bad_request(self):
        response = self.begin_response(
            LockManager(catalog_rw(), "pcp-da"), instance=-5
        )
        assert response["error"]["kind"] == "bad-request"

    def test_begin_with_a_non_integer_seq_is_bad_request(self):
        for seq in ("x", True, 1.5):
            response = self.begin_response(
                LockManager(catalog_rw(), "pcp-da"), seq=seq
            )
            assert response["error"]["kind"] == "bad-request", seq

    def test_begin_with_a_non_positive_deadline_is_bad_request(self):
        for deadline in (-1, 0):
            response = self.begin_response(
                LockManager(catalog_rw(), "pcp-da"), deadline_s=deadline
            )
            assert response["error"]["kind"] == "bad-request", deadline

    @pytest.mark.parametrize("shards", [1, 4])
    @pytest.mark.parametrize("deadline", [True, False, "5", [1]],
                             ids=["true", "false", "string", "array"])
    def test_begin_with_a_non_number_deadline_is_bad_request(
        self, shards, deadline
    ):
        if shards == 1:
            manager = LockManager(catalog_rw(), "pcp-da")
        else:
            manager = ShardedLockManager(catalog_rw(), "pcp-da", shards=shards)
        response = self.begin_response(manager, deadline_s=deadline)
        assert response["error"]["kind"] == "bad-request"
        assert repr(deadline) in response["error"]["message"]
        assert manager.stats.sessions_started == 0

    def test_sharded_begin_with_a_negative_deadline_is_bad_request(self):
        manager = ShardedLockManager(catalog_rw(), "pcp-da", shards=2)
        response = self.begin_response(manager, deadline_s=-1)
        assert response["error"]["kind"] == "bad-request"
        assert manager.stats.sessions_started == 0

    def test_sharded_access_outside_the_declared_sets_opens_no_leg(self):
        # Each out-of-bounds request is refused before it is routed, so
        # it opens no leg outside the span and teaches the router no new
        # item: the session stays single-shard and commits locally.
        catalog = make_catalog(StressSpec(seed=1))
        manager = ShardedLockManager(catalog, "pcp-da", shards=4)
        spec = next(
            spec for spec in catalog
            if len(manager._spans[spec.name]) == 1
            and spec.access_set - spec.write_set
        )
        span = manager._spans[spec.name]
        outside = next(
            item for item in sorted(catalog.items)
            if manager._shard_of[item] not in span
        )
        read_only = sorted(spec.access_set - spec.write_set)[0]

        async def body():
            begin = await wire.dispatch_request(
                manager, {"id": 1, "op": "begin", "transaction": spec.name}
            )
            sid = begin["result"]["session"]
            refused = [
                await wire.dispatch_request(
                    manager, {"id": 2, "op": "read", "session": sid,
                              "item": item},
                )
                for item in [f"nowhere{i}" for i in range(64)] + [outside]
            ]
            refused.append(await wire.dispatch_request(
                manager, {"id": 3, "op": "write", "session": sid,
                          "item": read_only, "value": 1},
            ))
            for op in spec.operations:
                request = {"id": 4, "op": op.kind.value, "session": sid,
                           "item": op.item, "value": 2}
                assert (await wire.dispatch_request(manager, request))["ok"]
            session = manager.session(sid)
            legs = set(session.legs)
            committed = await wire.dispatch_request(
                manager, {"id": 5, "op": "commit", "session": sid}
            )
            await manager.shutdown()
            return refused, legs, committed

        refused, legs, committed = run(body())
        assert [r["error"]["kind"] for r in refused] == (
            ["session-state"] * len(refused)
        )
        assert "outside the declared access set" in (
            refused[0]["error"]["message"]
        )
        assert "outside the declared write set" in (
            refused[-1]["error"]["message"]
        )
        assert legs <= span
        assert len(manager._shard_of) == len(catalog.items)
        assert committed["result"]["shards"] == sorted(span)
        assert manager.sharding_stats.cross_shard_commits == 0

    def test_unknown_op_is_bad_request(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            response = await wire.dispatch_request(
                manager, {"id": 9, "op": "frobnicate"}
            )
            assert not response["ok"]
            assert response["error"]["kind"] == "bad-request"
            await manager.shutdown()

        run(body())

    def test_missing_field_is_bad_request(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            response = await wire.dispatch_request(
                manager, {"id": 9, "op": "read", "item": "x"}
            )
            assert not response["ok"]
            assert response["error"]["kind"] == "bad-request"
            await manager.shutdown()

        run(body())

    @pytest.mark.parametrize("shards", [1, 4])
    def test_only_a_json_integer_addresses_a_session(self, shards):
        # True == 1 == 1.0 as dict keys: a boolean, float or string id
        # must name no session rather than abort a live one.
        if shards == 1:
            manager = LockManager(catalog_rw(), "pcp-da")
        else:
            manager = ShardedLockManager(catalog_rw(), "pcp-da", shards=shards)
        ids = [1.0, False, True, "2"]

        async def body():
            sessions = [
                (await wire.dispatch_request(
                    manager, {"id": i, "op": "begin", "transaction": name}
                ))["result"]["session"]
                for i, name in enumerate(("T1", "T2", "T3"))
            ]
            responses = [
                await wire.dispatch_request(
                    manager, {"id": 9, "op": "abort", "session": session_id}
                )
                for session_id in ids
            ]
            live = [manager.is_live(s) for s in sessions]
            await manager.shutdown()
            return sessions, responses, live

        sessions, responses, live = run(body())
        assert sessions == [0, 1, 2]
        assert [r["error"]["kind"] for r in responses] == (
            ["session-state"] * len(ids)
        )
        assert responses[3]["error"]["message"] == "unknown session '2'"
        assert live == [True, True, True]
        assert not any(manager.is_live(session_id) for session_id in ids[:3])

    def test_error_id_echoed_back(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            response = await wire.dispatch_request(
                manager, {"id": "tok-42", "op": "read", "session": 999,
                          "item": "x"}
            )
            assert response["id"] == "tok-42"
            assert response["error"]["kind"] == "session-state"
            await manager.shutdown()

        run(body())

    def test_in_process_client_raises_mapped_errors(self):
        async def body():
            manager = LockManager(
                catalog_rw(), "pcp-da", ServiceConfig(max_sessions=1)
            )
            client = in_process_client(manager)
            txn = await client.begin("T1")
            with pytest.raises(AdmissionError):
                await client.begin("T2")
            await txn.abort()
            await manager.shutdown()

        run(body())


@pytest.mark.service_soak
class TestTcpTransport:
    """Real loopback sockets — excluded from tier-1 / ``verify-service``
    (both stay socket-free); ``make verify-service SOAK=1`` runs these."""

    def test_round_trip_with_pipelining(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager, port=0)
            await server.start()
            try:
                client = await connect_tcp("127.0.0.1", server.port)
                async with client:
                    pong = await client.ping()
                    assert pong["version"] == wire.PROTOCOL_VERSION
                    # Pipeline: many concurrent sessions on one connection.
                    async def one(name):
                        txn = await client.begin(name)
                        if name == "T2":
                            await txn.write("x", name)
                        else:
                            await txn.read("x")
                        return await txn.commit()

                    results = await asyncio.gather(
                        one("T1"), one("T2"), one("T3")
                    )
                    assert all("installed" in r for r in results)
                    stats = await client.stats()
                    assert stats["commits"] == 3
            finally:
                await server.close()

        run(body())

    def test_wire_error_reraised_as_exception(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager, port=0)
            await server.start()
            try:
                async with await connect_tcp("127.0.0.1", server.port) as c:
                    with pytest.raises(SessionStateError):
                        await c.request("read", session=424242, item="x")
            finally:
                await server.close()

        run(body())

    def test_bad_json_line_gets_error_response(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager, port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"this is not json\n")
                await writer.drain()
                response = wire.decode(await reader.readline())
                assert not response["ok"]
                assert response["error"]["kind"] == "bad-request"
                writer.close()
                await writer.wait_closed()
            finally:
                await server.close()

        run(body())

    def test_disconnect_aborts_owned_sessions(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager, port=0)
            await server.start()
            try:
                client = await connect_tcp("127.0.0.1", server.port)
                txn = await client.begin("T2")
                await txn.write("x", 1)
                await client.close()   # vanish without commit/abort
                # Give the server's connection handler time to clean up.
                for _ in range(50):
                    await asyncio.sleep(0.01)
                    if not manager.table.writers_of("x"):
                        break
                assert not manager.table.writers_of("x")
                assert manager.stats.client_aborts >= 1
                # The lock table is usable again afterwards.
                survivor = await connect_tcp("127.0.0.1", server.port)
                async with survivor:
                    txn2 = await survivor.begin("T2")
                    await txn2.write("x", 2)
                    assert (await txn2.commit())["installed"] == ["x"]
            finally:
                await server.close()

        run(body())

    def test_server_close_shuts_manager_down(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            server = LockServer(manager, port=0)
            await server.start()
            await server.close()
            with pytest.raises(ServiceError):
                await manager.begin("T1")

        run(body())
