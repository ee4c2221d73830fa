"""The shard host: one ``LockManager`` per OS process, events on the wire.

``repro shard-host`` runs a single shard behind the NDJSON wire.  It is
the plain :class:`~repro.service.server.LockServer` plus the v2 push
stream: a connection that sends ``subscribe`` receives the event kinds
it named (``churn``, ``decision``; both when it names none) as event
frames, emitted *synchronously* while the triggering request is
dispatched and queued on the same per-connection output queue as
responses.  On one TCP stream this means every frame precedes the
response of the operation that caused it — the delivery-order guarantee
:class:`RemoteShardProxy` mirrors are built on.

Lifecycle: the supervisor spawns the host with ``--port 0``, the host
prints one JSON ready line (``{"ready": true, "port": ..., "pid": ...}``)
on stdout and serves until (a) SIGTERM/SIGINT, or (b) **stdin EOF** —
the supervisor holds the write end of the host's stdin, so the pipe
closing means the parent is gone (even via SIGKILL, which no handler can
observe) and the host exits rather than leak as an orphan.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import signal
import sys
from typing import Dict, FrozenSet, List, Optional

from repro.engine.job import Job
from repro.service import wire
from repro.service.connection import Connection
from repro.service.core import SERVED_PROTOCOLS
from repro.service.manager import LockManager
from repro.service.server import LockServer
from repro.trace.recorder import LockEvent
from repro.workloads.io import load_taskset


class ShardHostServer(LockServer):
    """A :class:`LockServer` over one shard that pushes event frames.

    ``manager`` must be a plain :class:`LockManager` (the shard-op
    family — ``prepare``/``force_abort``/``wait_graph``/... — targets a
    single shard, and the wire layer rejects it otherwise).  Frames go
    only to connections that opted in with ``subscribe``; a plain v2
    client on the same host sees the classic request/response protocol.
    """

    def __init__(
        self,
        manager: LockManager,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__(manager, host, port)
        #: Subscribed connection -> the event kinds it asked for.
        self._subscribers: Dict[Connection, FrozenSet[str]] = {}
        manager.churn_listeners.append(self._on_churn)
        manager.add_decision_listener(self._on_decision)

    # -- event fan-out --------------------------------------------------
    def _wanting(self, event: str) -> List[Connection]:
        return [
            connection
            for connection, events in self._subscribers.items()
            if event in events
        ]

    def _on_churn(self, kind: str, job: Job, other: Optional[Job]) -> None:
        targets = self._wanting("churn")
        if not targets:
            return
        blockers = reason = None
        if kind == "wait":
            blockers = (b.name for b in self.manager.waits.blockers_of(job))
        elif kind == "abort":
            session = self.manager._by_job.get(job)
            reason = session.abort_reason if session is not None else "abort"
        frame = wire.churn_frame(
            kind, job.name,
            other.name if other is not None else None,
            blockers=blockers, reason=reason,
        )
        for connection in targets:
            connection.send(frame)

    def _on_decision(self, event: LockEvent) -> None:
        targets = self._wanting("decision")
        if targets:
            frame = wire.decision_frame(event)
            for connection in targets:
                connection.send(frame)

    # -- connection hooks -----------------------------------------------
    async def _handle_request(self, connection, request):
        if request.get("op") != "subscribe":
            return await super()._handle_request(connection, request)
        events = frozenset(request.get("events") or wire.EVENT_KINDS)
        unknown = events.difference(wire.EVENT_KINDS)
        if unknown:
            return wire.error_response(
                request.get("id"), "bad-request",
                f"subscribe: unknown event kinds {sorted(unknown)}",
            )
        self._subscribers[connection] = events
        return wire.ok_response(
            request.get("id"),
            {"subscribed": True, "events": sorted(events)},
        )

    def _connection_closed(self, connection) -> None:
        self._subscribers.pop(connection, None)


def build_arg_parser() -> argparse.ArgumentParser:
    """CLI surface of ``repro shard-host`` (normally supervisor-spawned)."""
    parser = argparse.ArgumentParser(
        prog="repro shard-host",
        description="Run one lock-manager shard behind the NDJSON wire.",
    )
    add_host_args(parser)
    return parser


def add_host_args(parser: argparse.ArgumentParser) -> None:
    """Install the shard-host arguments (shared with the repro CLI)."""
    parser.add_argument("--catalog", required=True,
                        help="taskset JSON file (the shared catalog)")
    parser.add_argument("--protocol", default="pcp-da",
                        choices=SERVED_PROTOCOLS)
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 binds an ephemeral port (reported on stdout)")
    parser.add_argument("--shard-index", type=int, default=0,
                        help="this shard's index in the deployment")
    parser.add_argument("--t0", type=float, default=None,
                        help="shared CLOCK_MONOTONIC epoch (supervisor's "
                             "time.monotonic() at deployment start)")
    parser.add_argument("--no-stdin-watch", action="store_true",
                        help="do not exit on stdin EOF (manual runs)")


async def _watch_stdin(stop: asyncio.Event) -> None:
    """Exit signal from the parent-death pipe: stdin EOF sets ``stop``.

    The supervisor keeps the write end open for the host's lifetime and
    never writes; EOF therefore means the parent exited — including the
    SIGKILL case no signal handler could see.
    """
    loop = asyncio.get_running_loop()
    reader = asyncio.StreamReader()
    try:
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin.buffer
        )
    except (OSError, ValueError):
        return  # stdin not pollable (e.g. /dev/null): rely on signals
    while True:
        chunk = await reader.read(4096)
        if not chunk:
            break
    stop.set()


async def run_shard_host(args: argparse.Namespace) -> int:
    """Serve one shard until told to stop; returns the exit code."""
    taskset = load_taskset(args.catalog)
    manager = LockManager(taskset, args.protocol)
    if args.t0 is not None:
        # All hosts and the coordinator share one service clock:
        # CLOCK_MONOTONIC is system-wide on Linux, so timestamps in
        # history/trace rows are comparable across processes.
        manager._t0 = args.t0
    server = ShardHostServer(manager, args.host, args.port)
    await server.start()
    print(json.dumps({
        "ready": True,
        "port": server.port,
        "pid": os.getpid(),
        "shard": args.shard_index,
        "protocol": manager.protocol.name,
        "version": wire.PROTOCOL_VERSION,
    }), flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        with contextlib.suppress(NotImplementedError, RuntimeError):
            loop.add_signal_handler(sig, stop.set)
    watchdog = None
    if not args.no_stdin_watch:
        watchdog = asyncio.ensure_future(_watch_stdin(stop))
    serving = asyncio.ensure_future(server.serve_forever())
    try:
        await stop.wait()
    finally:
        serving.cancel()
        if watchdog is not None:
            watchdog.cancel()
        await asyncio.gather(serving, watchdog or asyncio.sleep(0),
                             return_exceptions=True)
        await server.close()
    return 0


def main(argv: Optional[list] = None) -> int:
    """Entry point for ``repro shard-host``."""
    args = build_arg_parser().parse_args(argv)
    try:
        return asyncio.run(run_shard_host(args))
    except KeyboardInterrupt:
        return 0
