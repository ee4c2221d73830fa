"""ShardSupervisor tests with an injected spawner — no subprocesses.

Socket-free (``make verify-procs`` tier): a fake spawner hands the
supervisor process-like and proxy-like objects, so the lifecycle logic —
start, graceful stop with SIGTERM-then-SIGKILL escalation, crash
detection, fail-fast vs restart, the atexit backstop's pid bookkeeping —
is all exercised deterministically.  The one test that needs real
processes (nothing survives a SIGKILLed parent) lives in
``test_procs_orphans.py``.
"""

import asyncio

import pytest

from repro.exceptions import ServiceError, SpecificationError
from repro.model.priorities import assign_by_order
from repro.model.spec import TaskSet, TransactionSpec, read, write
from repro.service.sharding.procs.supervisor import (
    ShardSupervisor,
    start_proc_deployment,
)


def catalog_rw() -> TaskSet:
    specs = [
        TransactionSpec("R", (read("x", 1.0),), offset=0.0),
        TransactionSpec("W", (write("x", 1.0),), offset=0.0),
    ]
    return assign_by_order(specs)


def run(coro):
    return asyncio.run(coro)


async def settle(steps: int = 10) -> None:
    for _ in range(steps):
        await asyncio.sleep(0)


class FakeStdin:
    def __init__(self):
        self.closed = False

    def close(self):
        self.closed = True


class FakeProcess:
    """Process-like: exit is an event the test (or terminate) fires."""

    _pids = iter(range(90001, 99999))

    def __init__(self):
        self.pid = next(FakeProcess._pids)
        self.returncode = None
        self.stdin = FakeStdin()
        self.terminated = False
        self.killed = False
        self._exited = asyncio.Event()

    def exit(self, code: int) -> None:
        self.returncode = code
        self._exited.set()

    async def wait(self) -> int:
        await self._exited.wait()
        return self.returncode

    def terminate(self) -> None:
        self.terminated = True
        self.exit(-15)

    def kill(self) -> None:
        self.killed = True
        self.exit(-9)


class FakeProxy:
    def __init__(self, index: int):
        self.index = index
        self.shut_down = False
        self._t0 = 0.0

    async def shutdown(self) -> None:
        self.shut_down = True


class FakeCoordinator:
    """Records the crash-handling calls the supervisor makes."""

    def __init__(self):
        self.lost = []
        self.replaced = []

    def on_shard_lost(self, shard_id, reason):
        self.lost.append((shard_id, reason))

    def replace_shard(self, shard_id, shard):
        self.replaced.append((shard_id, shard))


def make_supervisor(**kwargs):
    spawned = []

    async def spawn(index):
        process = FakeProcess()
        proxy = FakeProxy(index)
        spawned.append((index, process, proxy))
        return process, proxy, 9000 + index

    kwargs.setdefault("shards", 2)
    supervisor = ShardSupervisor(catalog_rw(), "pcp-da", spawn=spawn,
                                 **kwargs)
    return supervisor, spawned


class TestLifecycle:
    def test_start_spawns_every_shard_in_order(self):
        async def body():
            supervisor, spawned = make_supervisor(shards=3)
            await supervisor.start()
            assert [index for index, _, _ in spawned] == [0, 1, 2]
            assert len(supervisor.proxies) == 3
            assert supervisor.handles[2].port == 9002
            await supervisor.stop()

        run(body())

    def test_start_twice_refused(self):
        async def body():
            supervisor, _ = make_supervisor()
            await supervisor.start()
            with pytest.raises(ServiceError):
                await supervisor.start()
            await supervisor.stop()

        run(body())

    def test_stop_closes_stdin_terminates_and_reaps(self):
        async def body():
            supervisor, spawned = make_supervisor()
            await supervisor.start()
            await supervisor.stop()
            for _, process, proxy in spawned:
                assert proxy.shut_down
                assert process.stdin.closed
                assert process.terminated
                assert process.returncode is not None
            # reaped children leave nothing for the atexit backstop
            supervisor._atexit_reap()

        run(body())

    def test_stop_is_idempotent(self):
        async def body():
            supervisor, _ = make_supervisor()
            await supervisor.start()
            await supervisor.stop()
            await supervisor.stop()

        run(body())

    def test_failed_spawn_tears_down_earlier_shards(self):
        spawned = []

        async def spawn(index):
            if index == 1:
                raise OSError("no more processes")
            process = FakeProcess()
            spawned.append(process)
            return process, FakeProxy(index), 9000 + index

        async def body():
            supervisor = ShardSupervisor(catalog_rw(), "pcp-da",
                                         shards=2, spawn=spawn)
            with pytest.raises(OSError):
                await supervisor.start()
            assert spawned[0].returncode is not None

        run(body())


class TestCrashHandling:
    def test_unexpected_death_fails_fast_by_default(self):
        async def body():
            supervisor, spawned = make_supervisor()
            coordinator = FakeCoordinator()
            supervisor.attach(coordinator)
            await supervisor.start()
            spawned[1][1].exit(-9)
            await asyncio.wait_for(supervisor.crashed.wait(), 5)
            assert "code -9" in supervisor.failed
            assert coordinator.lost == [(1, supervisor.failed)]
            assert spawned[1][2].shut_down
            await supervisor.stop()

        run(body())

    def test_restart_policy_relaunches_and_swaps_the_proxy(self):
        async def body():
            supervisor, spawned = make_supervisor(on_crash="restart")
            coordinator = FakeCoordinator()
            supervisor.attach(coordinator)
            await supervisor.start()
            dead = spawned[0]
            dead[1].exit(1)
            await asyncio.wait_for(supervisor.crashed.wait(), 5)
            assert supervisor.failed is None
            assert len(spawned) == 3  # 2 initial + 1 replacement
            replacement = spawned[2]
            assert replacement[0] == 0  # respawned at the dead index
            assert supervisor.handles[0].process is replacement[1]
            assert coordinator.lost[0][0] == 0
            assert coordinator.replaced == [(0, replacement[2])]
            assert replacement[2]._t0 == supervisor.t0
            await supervisor.stop()

        run(body())

    def test_restart_failure_downgrades_to_failed(self):
        calls = {"n": 0}

        async def spawn(index):
            calls["n"] += 1
            if calls["n"] > 2:
                raise OSError("fork bomb guard")
            return FakeProcess(), FakeProxy(index), 9000 + index

        async def body():
            supervisor = ShardSupervisor(catalog_rw(), "pcp-da", shards=2,
                                         on_crash="restart", spawn=spawn)
            await supervisor.start()
            supervisor.handles[0].process.exit(1)
            await asyncio.wait_for(supervisor.crashed.wait(), 5)
            assert "restart failed" in supervisor.failed
            await supervisor.stop()

        run(body())

    def test_invalid_on_crash_rejected(self):
        with pytest.raises(ValueError):
            ShardSupervisor(catalog_rw(), on_crash="shrug")


class TestDeployment:
    def test_start_proc_deployment_wires_the_clock_and_crash_path(self):
        async def body():
            spawn_proxies = []

            async def spawn(index):
                proxy = FakeProxy(index)
                # the coordinator ctor probes the injected shard surface
                proxy.churn_listeners = []
                proxy.decision_listeners = []
                proxy.is_remote = True
                spawn_proxies.append(proxy)
                return FakeProcess(), proxy, 9000 + index

            supervisor, coordinator = await start_proc_deployment(
                catalog_rw(), "pcp-da", shards=2, spawn=spawn,
            )
            assert coordinator._t0 == supervisor.t0
            assert all(p._t0 == supervisor.t0 for p in spawn_proxies)
            assert supervisor._coordinator is coordinator
            assert coordinator._remote is True
            assert [s for s in coordinator.shards] == spawn_proxies
            await supervisor.stop()

        run(body())

    def test_unserved_protocol_refused_before_any_spawn(self):
        spawned = []

        async def spawn(index):
            spawned.append(index)
            return FakeProcess(), FakeProxy(index), 9000 + index

        async def body():
            with pytest.raises(SpecificationError,
                               match="pcp-da, rw-pcp, pcp"):
                await start_proc_deployment(catalog_rw(), "ipcp", spawn=spawn)

        run(body())
        assert spawned == []
