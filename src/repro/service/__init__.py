"""Live lock-manager service: PCP-DA, RW-PCP and PCP served to concurrent
clients over an asyncio runtime.

The simulator answers "what would the protocol do over virtual time"; this
package answers the paper's actual systems question — grant/deny locks
*online* to concurrently connected clients with bounded blocking — while
reusing the exact same building blocks:

* admission decisions come from the array kernel compiled from the
  registered protocol objects (the same ``Kernel.decide`` the simulator
  calls); the served protocols are
  :data:`repro.service.manager.SERVED_PROTOCOLS`;
* bookkeeping lives in :class:`repro.engine.lock_table.LockTable` and
  :class:`repro.engine.inheritance.WaitForGraph` (priority inheritance and
  deadlock detection included);
* data correctness uses the ``db/`` workspace model: deferred updates,
  version-bound reads, and a committed :class:`repro.db.history.History`
  that replays through :func:`repro.db.serializability.check_serializable`
  — the live path is checked against the same oracle as the simulator.

Layers (see docs/SERVICE.md):

* :mod:`repro.service.core` — the synchronous lock core (sessions,
  decisions, parks, grant queue, commit, observability hooks), with no
  event loop;
* :mod:`repro.service.manager` — the asyncio adapter over the core: it
  awaits parks and turns deadlines and cancellations into aborts;
* :mod:`repro.service.park` — the one record (and its kinds) for every
  way a request waits: lock, order guard, commit fence, commit gate;
* :mod:`repro.service.stats` — latency histograms, per-priority-band
  blocking breakdown, grant/deny/abort counters;
* :mod:`repro.service.wire` — the newline-delimited JSON request/response
  schema shared by both transports;
* :mod:`repro.service.connection` — the one NDJSON connection class
  behind server, client and shard proxy (eager dispatch through
  :mod:`repro.service.eager`, one write per chunk or tick);
* :mod:`repro.service.server` — the TCP transport (``repro serve``);
* :mod:`repro.service.client` — the async client library (in-process and
  TCP transports);
* :mod:`repro.service.loadgen` — open/closed-loop load generation with
  the serializability replay oracle (``repro loadgen``);
* :mod:`repro.service.sharding` — the partitioned deployment: N shard
  managers behind a coordinator that routes by item, merges the
  per-shard serialization-constraint registries, and runs the commit
  gate globally (``repro serve --shards N``, docs/SHARDING.md).
"""

from repro.service.client import ServiceClient, connect_tcp, in_process_client
from repro.service.loadgen import LoadgenConfig, LoadReport, run_loadgen
from repro.service.core import ServiceConfig, Session
from repro.service.manager import LockManager
from repro.service.server import LockServer
from repro.service.sharding import (
    GlobalSession,
    HashPartitioner,
    Partitioner,
    RangePartitioner,
    ShardedLockManager,
    make_partitioner,
)
from repro.service.stats import LatencyHistogram, ServiceStats, ShardingStats

__all__ = [
    "GlobalSession",
    "HashPartitioner",
    "LatencyHistogram",
    "LoadReport",
    "LoadgenConfig",
    "LockManager",
    "LockServer",
    "Partitioner",
    "RangePartitioner",
    "ServiceClient",
    "ServiceConfig",
    "ServiceStats",
    "Session",
    "ShardedLockManager",
    "ShardingStats",
    "connect_tcp",
    "in_process_client",
    "make_partitioner",
    "run_loadgen",
]
