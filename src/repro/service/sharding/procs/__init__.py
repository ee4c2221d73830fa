"""Multi-process shard deployments: hosts, proxies, and the supervisor.

One shard per OS process (``repro shard-host``), mirrored into the
coordinator's address space by :class:`RemoteShardProxy`, spawned and
reaped by :class:`ShardSupervisor`.  See docs/SHARDING.md for the
topology and crash semantics.
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.service.sharding.procs.proxy": ("RemoteShardProxy",),
    "repro.service.sharding.procs.supervisor": (
        "ShardSupervisor", "start_proc_deployment",
    ),
})
