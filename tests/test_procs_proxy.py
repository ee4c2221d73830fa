"""RemoteShardProxy ↔ ShardHostServer tests over an in-memory transport.

Socket-free (``make verify-procs`` tier): the proxy's connection talks
to the server end of a real :class:`ShardHostServer` connection through
a linked in-memory transport pair (``tests/memory_transport.py``), so
every byte of the v2 protocol — hello, subscribe, event frames, the
shard-op family — is exercised without a TCP stack or a child process.
The frame-before-response ordering the mirrors rely on is the real
server's, not a simulation of it.
"""

import asyncio

import pytest

from repro.exceptions import (
    ProtocolVersionError,
    ServiceError,
    SessionStateError,
)
from repro.model.priorities import assign_by_order
from repro.model.spec import TaskSet, TransactionSpec, read, write
from repro.service import LockManager, ShardedLockManager
from repro.service import wire
from repro.service.manager import SessionState
from repro.service.server import LockServer
from repro.service.sharding.procs.host import ShardHostServer
from repro.service.sharding.procs.proxy import RemoteShardProxy
from tests.memory_transport import link


def catalog_rw() -> TaskSet:
    specs = [
        TransactionSpec("R", (read("x", 1.0),), offset=0.0),
        TransactionSpec("W", (write("x", 1.0), write("y", 1.0)), offset=0.0),
    ]
    return assign_by_order(specs)


def catalog_two_shards() -> TaskSet:
    """Range over 2 shards: {a, b} on shard 0, {f} on shard 1."""
    r = TransactionSpec("R", (read("b", 1.0),))
    rf = TransactionSpec("RF", (read("f", 1.0), write("a", 1.0)))
    w = TransactionSpec("W", (write("b", 1.0), write("f", 1.0)))
    return assign_by_order([r, rf, w])


def run(coro):
    return asyncio.run(coro)


async def settle(steps: int = 10) -> None:
    for _ in range(steps):
        await asyncio.sleep(0)


async def settled(op, *args, **kwargs):
    """Await the remote park a proxy op returns, then resume the op."""
    park = op(*args, **kwargs)
    while not park.ended:
        await asyncio.sleep(0)
    return op(*args, resume=park, **kwargs)


class Host:
    """One in-memory shard host: manager + served connection + proxy."""

    def __init__(self, catalog: TaskSet, protocol: str = "pcp-da"):
        self.catalog = catalog
        self.manager = LockManager(catalog, protocol)
        self.server = ShardHostServer(self.manager)
        self.proxy = None
        self.server_end = None

    async def start(self) -> "Host":
        self.proxy = RemoteShardProxy(self.catalog, label="shard-mem")
        _, self.server_end = link(
            self.proxy.connection, self.server.new_connection()
        )
        await self.proxy.negotiate()
        return self

    async def stop(self) -> None:
        if self.proxy is not None:
            await self.proxy.shutdown()
        # Waits for the served connection's cleanup, then shuts the
        # manager down.
        await asyncio.wait_for(self.server.close(), 5)


async def proxy_against(server: LockServer, label: str) -> RemoteShardProxy:
    """Negotiate a fresh proxy with ``server`` over a memory link."""
    proxy = RemoteShardProxy(catalog_rw(), label=label)
    link(proxy.connection, server.new_connection())
    try:
        await proxy.negotiate()
    finally:
        await proxy.shutdown()
        await server.close()
    return proxy


class TestHandshake:
    def test_handshake_negotiates_and_subscribes(self):
        async def body():
            host = await Host(catalog_rw()).start()
            assert (await host.proxy.ping())["protocol"] == "pcp-da"
            assert host.proxy.is_remote is True
            # subscribe registered this connection for push frames
            assert len(host.server._subscribers) == 1
            await host.stop()
            assert host.server._subscribers == {}

        run(body())

    def test_missing_features_refused(self):
        class StingyServer(LockServer):
            async def _handle_request(self, connection, request):
                assert request["op"] == "hello"
                return wire.ok_response(
                    request["id"],
                    {"version": wire.PROTOCOL_VERSION, "protocol": "pcp-da",
                     "features": ["events"]},  # no shard-ops
                )

        async def body():
            server = StingyServer(LockManager(catalog_rw(), "pcp-da"))
            with pytest.raises(ServiceError) as info:
                await proxy_against(server, "stingy")
            assert "shard-ops" in str(info.value)

        run(body())

    def test_version_mismatch_surfaces_protocol_error(self):
        class OldEraServer(LockServer):
            async def _handle_request(self, connection, request):
                return await super()._handle_request(
                    connection, {**request, "version": "repro-service/1"}
                )

        async def body():
            server = OldEraServer(LockManager(catalog_rw(), "pcp-da"))
            with pytest.raises(ProtocolVersionError):
                await proxy_against(server, "old")

        run(body())


class TestProxySurface:
    def test_begin_read_write_commit_round_trip(self):
        async def body():
            host = await Host(catalog_rw()).start()
            proxy = host.proxy
            leg = await settled(proxy.begin, "W")
            assert leg.name == "W#0"
            assert leg.name in proxy._legs and leg.name in proxy._jobs
            await settled(proxy.write, leg, "x", 10)
            await settled(proxy.write, leg, "y", 11)
            result = await settled(proxy.commit, leg)
            assert sorted(result["installed"]) == ["x", "y"]
            # finish frame preceded the commit ack: mirror already flipped
            assert leg.state is SessionState.COMMITTED
            assert leg.name not in proxy._legs
            reader = await settled(proxy.begin, "R")
            assert await settled(proxy.read, reader, "x") == 10
            await settled(proxy.commit, reader)
            await host.stop()

        run(body())

    def test_begin_seq_reaches_the_host(self):
        async def body():
            host = await Host(catalog_rw()).start()
            leg = await settled(host.proxy.begin, "R", instance=3, seq=77)
            # one message pins both the mirror job and the host's
            assert leg.job.seq == 77
            assert host.manager.session(leg.id).job.seq == 77
            await settled(host.proxy.commit, leg)
            await host.stop()

        run(body())

    def test_wire_errors_re_raise_typed(self):
        async def body():
            host = await Host(catalog_rw()).start()
            with pytest.raises(ServiceError):
                await settled(host.proxy.begin, "NOPE")  # bad-request kind
            leg = await settled(host.proxy.begin, "R")
            host.manager.force_abort(
                host.manager.session(leg.id), "host-side abort"
            )
            await settle()
            with pytest.raises(SessionStateError):
                await settled(host.proxy.read, leg, "x")
            await host.stop()

        run(body())

    def test_calls_after_shutdown_fail_cleanly(self):
        async def body():
            host = await Host(catalog_rw()).start()
            leg = await settled(host.proxy.begin, "R")
            await host.proxy.shutdown()
            with pytest.raises(ServiceError):
                await settled(host.proxy.read, leg, "x")
            host.proxy._post("unprepare", session=leg.id)  # silent no-op
            await host.stop()

        run(body())


class TestMirrors:
    def test_constraint_frames_build_the_predecessor_mirror(self):
        async def body():
            host = await Host(catalog_rw()).start()
            proxy = host.proxy
            w = await settled(proxy.begin, "W")
            await settled(proxy.write, w, "x", 1)
            r = await settled(proxy.begin, "R")
            # LC3: the read passes W's write lock, recording R ≺ W.
            await settled(proxy.read, r, "x")
            assert proxy.constraints.direct_preds(w.job) == {r.job}
            assert not proxy.constraints.direct_preds(r.job)
            preds = proxy.constraints.preds(w.job)
            assert {job.name for job in preds} == {r.name}
            await settled(proxy.commit, r)
            await settle()
            # r is terminal: the constraint node is pruned
            assert proxy.constraints.preds(w.job) == set()
            assert not proxy.constraints
            await settled(proxy.commit, w)
            await host.stop()

        run(body())

    def test_wait_and_unwait_frames_track_parked_legs(self):
        async def body():
            host = await Host(catalog_rw()).start()
            proxy = host.proxy
            w = await settled(proxy.begin, "W")
            await settled(proxy.write, w, "x", 1)
            assert await settled(proxy.prepare_commit, w) is None
            r = await settled(proxy.begin, "R")
            reading = asyncio.ensure_future(settled(proxy.read, r, "x"))
            await settle()
            # the fence parked the reader; the wait frame mirrored it
            assert proxy.waits.waiters_on(w.job) == (r.job,)
            assert [j.name for j in proxy.waits.waiters()] == [r.name]
            assert [j.name for j in proxy.waits.blockers_of(r.job)] == [w.name]
            proxy.unprepare_commit(w)
            await reading
            assert not proxy.waits.waiters()
            await settled(proxy.commit, r)
            await settled(proxy.commit, w)
            await host.stop()

        run(body())

    def test_abort_frame_flips_the_mirror_with_the_host_reason(self):
        async def body():
            host = await Host(catalog_rw()).start()
            proxy = host.proxy
            seen = []
            proxy.churn_listeners.append(
                lambda kind, job, other: seen.append((kind, job.name))
            )
            leg = await settled(proxy.begin, "R")
            host.manager.force_abort(
                host.manager.session(leg.id), "deadlock victim"
            )
            await settle()
            assert leg.state is SessionState.ABORTED
            assert "deadlock victim" in leg.abort_reason
            assert leg.name not in proxy._legs
            assert ("abort", leg.name) in seen
            await host.stop()

        run(body())

    def test_local_force_abort_flips_now_and_drops_the_echo(self):
        async def body():
            host = await Host(catalog_rw()).start()
            proxy = host.proxy
            seen = []
            proxy.churn_listeners.append(
                lambda kind, job, other: seen.append((kind, job.name))
            )
            leg = await settled(proxy.begin, "R")
            hosted = host.manager.session(leg.id)
            proxy.force_abort(leg, "coordinator victim")
            assert leg.state is SessionState.ABORTED
            proxy.force_abort(leg, "twice")  # idempotent
            assert leg.abort_reason == "coordinator victim"
            await settle()
            # host applied it...
            assert not hosted.state.live
            # ...and its confirming abort frame was dropped (no mirror)
            assert ("abort", leg.name) not in seen
            await host.stop()

        run(body())

    def test_mark_lost_terminates_every_live_leg_locally(self):
        async def body():
            host = await Host(catalog_rw()).start()
            proxy = host.proxy
            a = await settled(proxy.begin, "R")
            b = await settled(proxy.begin, "W")
            proxy.mark_lost("exited with code -9")
            for leg in (a, b):
                assert leg.state is SessionState.ABORTED
                assert "shard host lost" in leg.abort_reason
            assert proxy._legs == {} and proxy._jobs == {}
            await host.stop()

        run(body())

    def test_decision_frames_reach_listeners(self):
        async def body():
            host = await Host(catalog_rw()).start()
            events = []
            host.proxy.add_decision_listener(events.append)
            leg = await settled(host.proxy.begin, "R")
            await settled(host.proxy.read, leg, "x")
            await settled(host.proxy.commit, leg)
            assert events, "no decision frames arrived"
            assert events[0].job == leg.name
            assert events[0].item == "x"
            await host.stop()

        run(body())

    def test_decision_frames_sent_only_once_somebody_listens(self):
        async def body():
            host = await Host(catalog_rw()).start()

            def decision_frames():
                return [chunk for chunk in host.server_end.written
                        if b'"event":"decision"' in chunk]

            leg = await settled(host.proxy.begin, "R")
            await settled(host.proxy.read, leg, "x")
            await settled(host.proxy.commit, leg)
            assert decision_frames() == []
            assert host.server._subscribers == {
                host.server_end.protocol: frozenset({"churn"})
            }
            # the widened subscription is posted ahead of the next call
            host.proxy.add_decision_listener(lambda event: None)
            leg = await settled(host.proxy.begin, "R")
            await settled(host.proxy.read, leg, "x")
            assert len(decision_frames()) == 1
            await settled(host.proxy.commit, leg)
            await host.stop()

        run(body())

    def test_subscribe_rejects_unknown_event_kinds(self):
        async def body():
            host = await Host(catalog_rw()).start()
            with pytest.raises(ServiceError) as info:
                await host.proxy._call("subscribe", events=["gossip"])
            assert "gossip" in str(info.value)
            # the earlier subscription stands
            assert list(host.server._subscribers.values()) == [
                frozenset({"churn"})
            ]
            await host.stop()

        run(body())


class TestProxyCoordinator:
    """A real ShardedLockManager over two in-memory remote shards."""

    async def deployment(self):
        hosts = [
            await Host(catalog_two_shards()).start(),
            await Host(catalog_two_shards()).start(),
        ]
        coordinator = ShardedLockManager(
            catalog_two_shards(), "pcp-da",
            shards=2, partitioner="range",
            shard_managers=[host.proxy for host in hosts],
        )
        return hosts, coordinator

    async def teardown(self, hosts, coordinator):
        await coordinator.shutdown()
        for host in hosts:
            await host.stop()

    def test_cross_shard_commit_end_to_end(self):
        async def body():
            hosts, coordinator = await self.deployment()
            session = await coordinator.begin("W")
            assert session.span == frozenset({0, 1})
            await coordinator.write(session, "b", 1)
            await coordinator.write(session, "f", 2)
            result = await coordinator.commit(session)
            assert result["installed"] == ["b", "f"]
            reader = await coordinator.begin("R")
            assert await coordinator.read(reader, "b") == 1
            await coordinator.commit(reader)
            await self.teardown(hosts, coordinator)

        run(body())

    def test_a_cycle_split_across_hosts_loses_one_victim(self):
        # rw-pcp, per-host ceilings: T1 locks a on host 0 then wants e on
        # host 1; T2 locks e then wants a.  Each host parks one request
        # and sends its wait frame; the frames close the cycle on the
        # coordinator, and no operation follows them.
        t1 = TransactionSpec("T1", (write("a", 1.0), write("e", 1.0)))
        t2 = TransactionSpec("T2", (write("e", 1.0), write("a", 1.0)))
        catalog = assign_by_order([t1, t2])

        async def body():
            hosts = [await Host(catalog, "rw-pcp").start() for _ in "01"]
            coordinator = ShardedLockManager(
                catalog, "rw-pcp", shards=2, partitioner="range",
                shard_managers=[host.proxy for host in hosts],
            )
            s1 = await coordinator.begin("T1")
            s2 = await coordinator.begin("T2")
            await coordinator.write(s1, "a", 1)
            await coordinator.write(s2, "e", 2)
            first, second = await asyncio.wait_for(asyncio.gather(
                coordinator.write(s1, "e", 1),
                coordinator.write(s2, "a", 2),
                return_exceptions=True,
            ), 5)
            assert first is None
            assert isinstance(second, ServiceError)
            assert coordinator.sharding_stats.cross_shard_deadlocks == 1
            assert s2.abort_reason == "deadlock" and s1.state.live
            assert (await coordinator.commit(s1))["installed"] == ["a", "e"]
            await self.teardown(hosts, coordinator)

        run(body())

    def test_remote_stats_and_history_paths(self):
        async def body():
            hosts, coordinator = await self.deployment()
            session = await coordinator.begin("W")
            await coordinator.write(session, "b", 1)
            await coordinator.write(session, "f", 2)
            await coordinator.commit(session)
            stats = await coordinator.stats_document()
            assert stats["deployment"] == "multiprocess"
            assert stats["shard_procs"] == 2
            assert stats["commits"] == 1
            assert len(stats["shards"]) == 2
            events = await coordinator.history_events()
            kinds = {event["kind"] for event in events}
            assert "install" in kinds and "commit" in kinds
            await self.teardown(hosts, coordinator)

        run(body())

    def test_on_shard_lost_aborts_only_touching_sessions(self):
        async def body():
            hosts, coordinator = await self.deployment()
            cross = await coordinator.begin("W")      # span {0, 1}
            local = await coordinator.begin("R")      # span {0}
            await coordinator.write(cross, "b", 1)
            coordinator.on_shard_lost(1, "exited with code -9")
            assert not cross.state.live
            assert local.state.live
            assert coordinator.sharding_stats.cascade_aborts == 1
            with pytest.raises(SessionStateError):
                await coordinator.commit(cross)
            await coordinator.commit(local)
            await self.teardown(hosts, coordinator)

        run(body())
