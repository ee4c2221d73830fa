"""Child process of ``tcp-wide-c2``: one ``LockServer`` on an ephemeral port.

Prints ``{"ready": true, "port": N}`` on stdout once it accepts
connections and serves until stdin reaches EOF — the parent holds the
write end and never writes, so the child exits on *any* parent death
(the same hygiene rule the shard supervisor uses for its hosts).
"""

from __future__ import annotations

import asyncio
import json
import sys

from repro.service import LockManager, LockServer, ServiceConfig

import workloads


async def serve(catalog_kind: str) -> None:
    manager = LockManager(
        workloads.catalog_for(catalog_kind), workloads.PROTOCOL,
        ServiceConfig(max_sessions=workloads.MAX_SESSIONS),
    )
    server = LockServer(manager, host="127.0.0.1", port=0)
    await server.start()
    try:
        print(json.dumps({"ready": True, "port": server.port}), flush=True)
        # Blocking read in a worker thread: EOF is the stop signal.
        await asyncio.get_running_loop().run_in_executor(
            None, sys.stdin.buffer.read
        )
    finally:
        await server.close()


if __name__ == "__main__":
    asyncio.run(serve(sys.argv[1]))
