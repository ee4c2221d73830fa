"""Build and tear down the four service deployments.

:func:`deployment` is one async context manager for all of them.  It
yields a :class:`Deployment` once the first request has been answered
(that interval is the workload's ``setup_s``) and, on *every* exit path,
shuts the manager down, reaps any child process and records the children
it started in :data:`STARTED_PIDS`, which the runner checks before it
exits: no child may outlive the benchmark.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import (
    Any, AsyncIterator, Awaitable, Callable, Dict, List, Optional,
)

from repro.service import (
    LockManager,
    ServiceClient,
    ServiceConfig,
    ShardedLockManager,
    connect_tcp,
    in_process_client,
)
from repro.service.sharding.procs import start_proc_deployment

import workloads
from workloads import Workload

HERE = pathlib.Path(__file__).resolve().parent

#: Seconds a child gets to exit after its stop signal before SIGKILL.
CHILD_GRACE_S = 5.0
#: Seconds to wait for the TCP child's ready line.
READY_TIMEOUT_S = 30.0

#: Every child pid any deployment started, for the runner's exit check.
STARTED_PIDS: List[int] = []


@dataclass
class Deployment:
    """A live deployment as the driver sees it.

    Attributes:
        connect: opens one client (one per closed-loop worker, plus the
            control client); over TCP each is its own connection.
        setup_s: build start until the first ``ping`` was answered.
        extras: deployment-specific per-layer scalars measured at
            build time (``supervisor.start_s``).
        ping: the layer whose bare round trip is worth a row
            (``server`` for TCP, ``proxy`` for shard processes) and the
            coroutine function that makes one.
    """

    connect: Callable[[], Awaitable[ServiceClient]]
    setup_s: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)
    ping: Optional[tuple] = None


async def _stop_child(process: Any) -> None:
    """Close stdin (the stop signal), wait out the grace period, then kill."""
    if process.stdin is not None:
        with contextlib.suppress(OSError, RuntimeError):
            process.stdin.close()
    if process.returncode is None:
        try:
            await asyncio.wait_for(process.wait(), CHILD_GRACE_S)
        except asyncio.TimeoutError:
            with contextlib.suppress(ProcessLookupError):
                process.kill()
            await process.wait()


@contextlib.asynccontextmanager
async def deployment(workload: Workload) -> AsyncIterator[Deployment]:
    """Deploy ``workload``; yield after the first answered request."""
    catalog = workloads.catalog_for(workload.catalog)
    config = ServiceConfig(max_sessions=workloads.MAX_SESSIONS)
    started = time.perf_counter()
    async with contextlib.AsyncExitStack() as stack:
        extras: Dict[str, float] = {}
        ping = None
        if workload.deployment == "tcp":
            process = await asyncio.create_subprocess_exec(
                sys.executable, str(HERE / "tcp_server.py"), workload.catalog,
                stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE,
            )
            STARTED_PIDS.append(process.pid)
            stack.push_async_callback(_stop_child, process)
            ready = await asyncio.wait_for(
                process.stdout.readline(), READY_TIMEOUT_S
            )
            port = int(json.loads(ready)["port"])

            async def connect() -> ServiceClient:
                return await connect_tcp("127.0.0.1", port)
        else:
            if workload.deployment == "procs":
                supervisor, manager = await start_proc_deployment(
                    catalog, workloads.PROTOCOL, shards=workload.shards,
                    config=config, partitioner="hash",
                )
                stack.push_async_callback(supervisor.stop)
                STARTED_PIDS.extend(
                    handle.process.pid for handle in supervisor.handles
                )
                extras["supervisor.start_s"] = time.perf_counter() - started
                ping = ("proxy", manager.shards[0].ping)
            elif workload.deployment == "sharded":
                manager = ShardedLockManager(
                    catalog, workloads.PROTOCOL, config,
                    shards=workload.shards, partitioner="hash",
                )
            else:
                manager = LockManager(catalog, workloads.PROTOCOL, config)
            stack.push_async_callback(manager.shutdown)

            async def connect() -> ServiceClient:
                return in_process_client(manager)

        probe = await connect()
        stack.push_async_callback(probe.close)
        await probe.ping()
        if workload.deployment == "tcp":
            ping = ("server", probe.ping)
        yield Deployment(
            connect, time.perf_counter() - started, extras, ping
        )


def surviving_children() -> List[int]:
    """Pids from :data:`STARTED_PIDS` that still exist (must be empty)."""
    alive = []
    for pid in STARTED_PIDS:
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            continue
        except PermissionError:
            pass  # exists, owned by someone else: a recycled pid
        else:
            alive.append(pid)
    return alive
