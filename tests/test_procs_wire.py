"""Wire v2 tests: hello negotiation, event frames, the shard-op family.

All socket-free (``make verify-procs`` tier): operations dispatch
directly through :func:`repro.service.wire.dispatch_request` against an
in-process :class:`LockManager`, and frames round-trip through the
NDJSON codec.  Every frame type the shard host can emit is encoded and
decoded here — the round-trip battery the wire version bump requires.
"""

import asyncio

import pytest

from repro.exceptions import ProtocolVersionError, ServiceError
from repro.model.priorities import assign_by_order
from repro.model.spec import LockMode, TaskSet, TransactionSpec, read, write
from repro.service import LockManager, ServiceConfig, ShardedLockManager
from repro.service import wire
from repro.trace.recorder import LockEvent, LockOutcome


def catalog_rw() -> TaskSet:
    specs = [
        TransactionSpec("R", (read("x", 1.0),), offset=0.0),
        TransactionSpec("W", (write("x", 1.0), write("y", 1.0)), offset=0.0),
    ]
    return assign_by_order(specs)


def run(coro):
    return asyncio.run(coro)


async def settle(steps: int = 5) -> None:
    for _ in range(steps):
        await asyncio.sleep(0)


async def call(manager, op, **params):
    """Dispatch one op; return the result dict or raise on wire error."""
    response = await wire.dispatch_request(manager, {"id": 1, "op": op,
                                                     **params})
    if response["ok"]:
        return response["result"]
    error = response["error"]
    raise wire.ERROR_TYPES.get(error["kind"], ServiceError)(error["message"])


class TestHello:
    def test_version_is_v2(self):
        assert wire.PROTOCOL_VERSION == "repro-service/2"
        assert wire.FEATURES == frozenset({"events", "shard-ops"})

    def test_hello_grants_requested_intersection(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            result = await call(manager, "hello",
                                version=wire.PROTOCOL_VERSION,
                                features=["events", "time-travel"])
            assert result["version"] == wire.PROTOCOL_VERSION
            assert result["protocol"] == "pcp-da"
            assert result["features"] == ["events"]
            await manager.shutdown()

        run(body())

    def test_hello_no_features_grants_none(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            result = await call(manager, "hello",
                                version=wire.PROTOCOL_VERSION)
            assert result["features"] == []
            await manager.shutdown()

        run(body())

    def test_hello_rejects_old_client_with_version_error(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            with pytest.raises(ProtocolVersionError) as info:
                await call(manager, "hello", version="repro-service/1")
            assert "repro-service/1" in str(info.value)
            assert "repro-service/2" in str(info.value)
            await manager.shutdown()

        run(body())

    def test_hello_rejects_missing_version(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            with pytest.raises(ProtocolVersionError):
                await call(manager, "hello")
            await manager.shutdown()

        run(body())

    def test_version_error_kind_is_stable_on_the_wire(self):
        doc = wire.exception_to_error(3, ProtocolVersionError("era"))
        assert doc["error"]["kind"] == "version"
        assert wire.ERROR_TYPES["version"] is ProtocolVersionError


class TestEventFrames:
    def test_is_event_requires_event_key_and_no_id(self):
        assert wire.is_event({"event": "churn", "kind": "abort", "job": "W#0"})
        assert not wire.is_event({"id": 1, "event": "churn"})
        assert not wire.is_event({"id": 1, "ok": True, "result": {}})

    def test_every_churn_kind_round_trips(self):
        extras = {
            "constraint": {"other": "W#0"},
            "wait": {"blockers": ["W#0", "R#1"]},
            "unwait": {},
            "abort": {"reason": "deadlock victim"},
            "finish": {},
        }
        assert set(extras) == set(wire.CHURN_KINDS)
        for kind, kwargs in extras.items():
            frame = wire.churn_frame(kind, "R#0", **kwargs)
            decoded = wire.decode(wire.encode(frame))
            assert decoded == frame
            assert wire.is_event(decoded)
            assert decoded["kind"] == kind
            assert decoded["job"] == "R#0"
        assert wire.churn_frame("wait", "R#0", blockers=["b", "a"])[
            "blockers"] == ["a", "b"]

    def test_churn_frame_omits_absent_fields(self):
        frame = wire.churn_frame("finish", "W#2")
        assert set(frame) == {"event", "kind", "job"}

    def test_churn_frame_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            wire.churn_frame("promoted", "R#0")

    def test_decision_frame_round_trips(self):
        event = LockEvent(
            time=0.25, job="W#3", item="x", mode=LockMode.WRITE,
            outcome=LockOutcome.GRANTED, rule="HP/2PL", blockers=("R#0",),
        )
        frame = wire.decision_frame(event)
        decoded = wire.decode(wire.encode(frame))
        assert wire.is_event(decoded)
        assert wire.decision_from_frame(decoded) == event

    def test_decision_frame_defaults_blockers(self):
        frame = {"event": "decision", "time": 0.0, "job": "R#0", "item": "x",
                 "mode": "read", "outcome": "granted", "rule": "LC3"}
        assert wire.decision_from_frame(frame).blockers == ()


class TestShardOps:
    def test_begin_accepts_instance_and_seq(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            result = await call(manager, "begin", transaction="R",
                                instance=7, seq=42)
            assert result["name"] == "R#7"
            session = manager.session(result["session"])
            assert session.job.seq == 42
            await manager.shutdown()

        run(body())

    def test_prepare_unprepare_toggle_the_fence(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            w = await call(manager, "begin", transaction="W")
            session = manager.session(w["session"])
            await call(manager, "write", session=w["session"], item="x",
                       value=1)
            result = await call(manager, "prepare", session=w["session"])
            assert result["prepared"] is True
            assert "gate" not in result
            assert session.job in manager._committing
            result = await call(manager, "unprepare", session=w["session"])
            assert result["prepared"] is False
            assert session.job not in manager._committing
            await manager.shutdown()

        run(body())

    def test_commit_fence_parks_reader_until_unprepare(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            w = await call(manager, "begin", transaction="W")
            await call(manager, "write", session=w["session"], item="x",
                       value=1)
            await call(manager, "prepare", session=w["session"])
            r = await call(manager, "begin", transaction="R")
            reader = asyncio.ensure_future(
                call(manager, "read", session=r["session"], item="x")
            )
            await settle()
            # LC3 would let the read pass the write lock; the fence
            # parks it so no new reader ≺ committer constraint can form.
            assert not reader.done()
            await call(manager, "unprepare", session=w["session"])
            await settle()
            assert reader.done()
            await reader
            await manager.shutdown()

        run(body())

    def test_force_abort_over_the_wire(self):
        async def body():
            manager = LockManager(catalog_rw(), "pcp-da")
            r = await call(manager, "begin", transaction="R")
            session = manager.session(r["session"])
            result = await call(manager, "force_abort", session=r["session"],
                                reason="coordinator victim")
            assert result["aborted"] is True
            assert not session.state.live
            assert "coordinator victim" in session.abort_reason
            await manager.shutdown()

        run(body())

    def test_shard_ops_rejected_by_a_coordinator(self):
        async def body():
            manager = ShardedLockManager(catalog_rw(), "pcp-da", shards=2,
                                         partitioner="hash")
            for op in ("prepare", "unprepare", "force_abort"):
                response = await wire.dispatch_request(
                    manager, {"id": 1, "op": op, "session": 0}
                )
                assert not response["ok"]
                assert response["error"]["kind"] == "bad-request"
                assert "not a shard host" in response["error"]["message"]
            await manager.shutdown()

        run(body())


class TestMaybeAwait:
    def test_stats_and_history_tolerate_async_introspection(self):
        """A coordinator over remote shards answers stats/history with a
        coroutine; ``_execute`` must await it transparently."""

        class AsyncIntrospection(LockManager):
            def stats_document(self):
                async def fetch():
                    return super(AsyncIntrospection, self).stats_document()
                return fetch()

            def history_events(self):
                async def fetch():
                    return super(AsyncIntrospection, self).history_events()
                return fetch()

        async def body():
            manager = AsyncIntrospection(catalog_rw(), "pcp-da")
            stats = await call(manager, "stats")
            assert stats["protocol"] == "pcp-da"
            history = await call(manager, "history")
            assert history["events"] == []
            await manager.shutdown()

        run(body())
