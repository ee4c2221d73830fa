"""The shard supervisor: spawn, watch, drain, and *always* reap.

A :class:`ShardSupervisor` turns ``--shard-procs N`` into N
``repro shard-host`` child processes plus one
:class:`~repro.service.sharding.procs.proxy.RemoteShardProxy` per child,
ready to inject into a
:class:`~repro.service.sharding.coordinator.ShardedLockManager`.

Process hygiene is the non-negotiable part — a lock service that leaks
orphans on a crashed parent is worse than no lock service.  Four layers:

1. **stdin pipe.**  Each child inherits a pipe as stdin whose write end
   the supervisor holds and never writes.  The host exits on stdin EOF,
   which fires on *any* parent death — including SIGKILL, which no
   handler, atexit, or finally block in the parent can observe.
2. **Graceful stop.**  :meth:`stop` closes proxies, closes the stdin
   pipes, sends SIGTERM, waits a bounded grace period, then SIGKILLs
   stragglers.
3. **atexit backstop.**  A synchronous reaper registered at spawn time
   kills any child still alive when the parent interpreter exits down a
   path that skipped :meth:`stop` (unhandled exception, ``sys.exit`` in
   a signal handler).
4. **Crash monitors.**  A task per child awaits its exit; an unexpected
   death aborts every in-flight transaction touching the dead shard
   via ``coordinator.on_shard_lost`` and then either fails the
   deployment fast (default) or restarts the shard empty and swaps the
   new proxy in (``on_crash="restart"``).

The supervisor also owns the deployment's shared service clock: it
passes its own ``time.monotonic()`` epoch to every host (``--t0``) and
to the coordinator, so timestamps in merged histories are comparable
across processes.
"""

from __future__ import annotations

import asyncio
import atexit
import contextlib
import json
import os
import signal
import sys
import tempfile
import time
from typing import Any, Awaitable, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ServiceError
from repro.model.spec import TaskSet
from repro.service.core import ServiceConfig, check_served
from repro.service.sharding.coordinator import ShardedLockManager
from repro.service.sharding.procs.proxy import RemoteShardProxy
from repro.workloads.io import dump_taskset

#: Seconds a child gets between SIGTERM and SIGKILL at shutdown.
GRACE_S = 5.0
#: Seconds to wait for a spawned host's ready line.
READY_TIMEOUT_S = 30.0


class ShardHostHandle:
    """One spawned shard host: its process and its proxy."""

    def __init__(self, shard_id: int, process: Any, proxy: Any,
                 port: int = 0):
        self.shard_id = shard_id
        self.process = process
        self.proxy = proxy
        self.port = port


#: A spawner: shard index -> (process-like, proxy, port).  Injectable so
#: the supervisor's crash/restart/stop logic is testable without
#: sockets or subprocesses; the process-like needs ``wait()``,
#: ``terminate()``, ``kill()``, ``returncode``, ``pid`` and a ``stdin``
#: with ``close()`` (or ``None``).
Spawner = Callable[[int], Awaitable[Tuple[Any, Any, int]]]


class ShardSupervisor:
    """Own N shard-host processes for the lifetime of a deployment."""

    def __init__(
        self,
        catalog: TaskSet,
        protocol: str = "pcp-da",
        *,
        shards: int = 2,
        host: str = "127.0.0.1",
        on_crash: str = "fail",
        spawn: Optional[Spawner] = None,
    ) -> None:
        if on_crash not in ("fail", "restart"):
            raise ValueError(
                f"on_crash must be 'fail' or 'restart', not {on_crash!r}"
            )
        check_served(protocol)
        self.catalog = catalog
        self.protocol = protocol
        self.shard_count = shards
        self.host = host
        self.on_crash = on_crash
        self._spawn = spawn or self._spawn_subprocess
        #: Shared service clock epoch for every host and the coordinator.
        self.t0 = time.monotonic()
        self.handles: List[Optional[ShardHostHandle]] = [None] * shards
        self._monitors: List[asyncio.Task] = []
        self._coordinator: Optional[ShardedLockManager] = None
        self._closing = False
        self._started = False
        #: Set once a shard died under ``on_crash="fail"``.
        self.failed: Optional[str] = None
        #: Fires on any unexpected child death (tests/serve loops wait on it).
        self.crashed = asyncio.Event()
        self._catalog_path: Optional[str] = None
        self._atexit_registered = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def proxies(self) -> List[Any]:
        """The shard surfaces to inject into the coordinator, in order."""
        return [handle.proxy for handle in self.handles if handle is not None]

    def attach(self, coordinator: ShardedLockManager) -> None:
        """Wire crash handling to ``coordinator`` (on_shard_lost target)."""
        self._coordinator = coordinator

    async def start(self) -> None:
        """Spawn every shard host and start its crash monitor."""
        if self._started:
            raise ServiceError("supervisor already started")
        self._started = True
        atexit.register(self._atexit_reap)
        self._atexit_registered = True
        try:
            for index in range(self.shard_count):
                self.handles[index] = await self._launch(index)
        except BaseException:
            await self.stop()
            raise

    async def _launch(self, index: int) -> ShardHostHandle:
        process, proxy, port = await self._spawn(index)
        handle = ShardHostHandle(index, process, proxy, port)
        self._monitors.append(
            asyncio.ensure_future(self._monitor(handle))
        )
        return handle

    async def stop(self) -> None:
        """Drain and reap every child (idempotent, bounded)."""
        if self._closing:
            return
        self._closing = True
        for task in self._monitors:
            task.cancel()
        if self._monitors:
            await asyncio.gather(*self._monitors, return_exceptions=True)
        self._monitors.clear()
        for handle in self.handles:
            if handle is None:
                continue
            try:
                await handle.proxy.shutdown()
            except Exception:
                pass
        # Closing stdin is the polite exit signal (the host's
        # parent-death watchdog); SIGTERM is the firm one.
        for handle in self.handles:
            if handle is None or handle.process is None:
                continue
            process = handle.process
            stdin = getattr(process, "stdin", None)
            if stdin is not None:
                try:
                    stdin.close()
                except (OSError, RuntimeError):
                    pass
            if process.returncode is None:
                try:
                    process.terminate()
                except (ProcessLookupError, OSError):
                    pass
        for handle in self.handles:
            if handle is None or handle.process is None:
                continue
            process = handle.process
            if process.returncode is None:
                try:
                    await asyncio.wait_for(process.wait(), GRACE_S)
                except asyncio.TimeoutError:
                    try:
                        process.kill()
                    except (ProcessLookupError, OSError):
                        pass
                    await process.wait()
        if self._atexit_registered:
            atexit.unregister(self._atexit_reap)
            self._atexit_registered = False
        if self._catalog_path is not None:
            try:
                os.unlink(self._catalog_path)
            except OSError:
                pass
            self._catalog_path = None

    def _atexit_reap(self) -> None:
        """Synchronous backstop: no child survives this interpreter.

        Runs at interpreter exit on paths that never awaited
        :meth:`stop`.  Pure signals and polling — the event loop is gone
        by now.
        """
        pids = [
            handle.process.pid
            for handle in self.handles
            if handle is not None and handle.process is not None
            and getattr(handle.process, "pid", None)
            and handle.process.returncode is None
        ]
        for pid in pids:
            try:
                os.kill(pid, signal.SIGTERM)
            except (ProcessLookupError, OSError):
                pass
        deadline = time.monotonic() + GRACE_S
        live = set(pids)
        while live and time.monotonic() < deadline:
            for pid in list(live):
                try:
                    os.kill(pid, 0)
                except (ProcessLookupError, OSError):
                    live.discard(pid)
            if live:
                time.sleep(0.05)
        for pid in live:
            try:
                os.kill(pid, signal.SIGKILL)
            except (ProcessLookupError, OSError):
                pass
        if self._catalog_path is not None:
            try:
                os.unlink(self._catalog_path)
            except OSError:
                pass
            self._catalog_path = None

    # ------------------------------------------------------------------
    # Crash handling
    # ------------------------------------------------------------------
    async def _monitor(self, handle: ShardHostHandle) -> None:
        returncode = await handle.process.wait()
        if self._closing:
            return
        reason = f"shard host exited with code {returncode}"
        await self._on_child_death(handle, reason)

    async def _on_child_death(
        self, handle: ShardHostHandle, reason: str
    ) -> None:
        try:
            await handle.proxy.shutdown()
        except Exception:
            pass
        if self._coordinator is not None:
            self._coordinator.on_shard_lost(handle.shard_id, reason)
        if self.on_crash == "restart":
            try:
                replacement = await self._launch(handle.shard_id)
            except Exception as exc:
                self.failed = f"{reason}; restart failed: {exc}"
                self.crashed.set()
                return
            self.handles[handle.shard_id] = replacement
            if self._coordinator is not None:
                self._coordinator.replace_shard(
                    handle.shard_id, replacement.proxy
                )
                replacement.proxy._t0 = self.t0
            self.crashed.set()
            return
        self.failed = reason
        self.crashed.set()

    # ------------------------------------------------------------------
    # The real spawner
    # ------------------------------------------------------------------
    def _catalog_file(self) -> str:
        if self._catalog_path is None:
            fd, path = tempfile.mkstemp(
                prefix="repro-catalog-", suffix=".json"
            )
            os.close(fd)
            dump_taskset(self.catalog, path)
            self._catalog_path = path
        return self._catalog_path

    async def _spawn_subprocess(self, index: int) -> Tuple[Any, Any, int]:
        argv = [
            sys.executable, "-m", "repro", "shard-host",
            "--catalog", self._catalog_file(),
            "--protocol", self.protocol,
            "--host", self.host,
            "--port", "0",
            "--shard-index", str(index),
            "--t0", repr(self.t0),
        ]
        process = await asyncio.create_subprocess_exec(
            *argv,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            stderr=None,
            # Own process group: a Ctrl-C aimed at the parent's terminal
            # must not SIGINT the hosts mid-drain (the supervisor owns
            # their shutdown order).
            start_new_session=True,
        )
        try:
            ready = await asyncio.wait_for(
                process.stdout.readline(), READY_TIMEOUT_S
            )
            info = json.loads(ready.decode("utf-8") or "{}")
            if not info.get("ready"):
                raise ServiceError(
                    f"shard host {index} failed to start: {ready!r}"
                )
            port = int(info["port"])
            proxy = await RemoteShardProxy.connect(
                self.catalog, self.host, port, label=f"shard{index}"
            )
        except BaseException:
            with contextlib.suppress(ProcessLookupError, OSError):
                process.terminate()
            raise
        return process, proxy, port


async def start_proc_deployment(
    catalog: TaskSet,
    protocol: str = "pcp-da",
    *,
    shards: int = 2,
    config: Optional[ServiceConfig] = None,
    partitioner: str = "hash",
    host: str = "127.0.0.1",
    on_crash: str = "fail",
    spawn: Optional[Spawner] = None,
) -> Tuple[ShardSupervisor, ShardedLockManager]:
    """Spawn an N-process deployment and its coordinator, fully wired.

    The returned coordinator is a drop-in
    :class:`~repro.service.sharding.coordinator.ShardedLockManager` —
    serve it, drive it with the loadgen, hand it to the stress harness.
    ``config`` is the coordinator's: the hosts run uncapped and
    deadline-free, like every in-process shard.  The caller owns
    teardown: ``await coordinator.shutdown()`` then
    ``await supervisor.stop()``.
    """
    supervisor = ShardSupervisor(
        catalog, protocol, shards=shards, host=host,
        on_crash=on_crash, spawn=spawn,
    )
    await supervisor.start()
    try:
        coordinator = ShardedLockManager(
            catalog, protocol, config,
            shards=shards, partitioner=partitioner,
            shard_managers=supervisor.proxies,
        )
    except BaseException:
        await supervisor.stop()
        raise
    # One clock for hosts, proxies, and coordinator: the supervisor's
    # epoch was already handed to every host via --t0.
    coordinator._t0 = supervisor.t0
    for proxy in supervisor.proxies:
        proxy._t0 = supervisor.t0
    supervisor.attach(coordinator)
    return supervisor, coordinator
