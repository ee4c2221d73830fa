"""Sharded lock-manager service: partitioned PCP-DA with a global gate.

The paper's dynamic adjustment of serialization order is what makes
PCP-DA *partitionable*: reader≺writer constraints are recorded at grant
time on whichever shard owns the item, and only need to be reconciled
when a writer tries to commit.  This package splits the item space across
N independent :class:`~repro.service.core.LockCore` shards (DPCP-p-style
local ceilings and inheritance) and adds a synchronous
:class:`~repro.service.sharding.core.ShardedCore` — with its asyncio
adapter :class:`~repro.service.sharding.coordinator.ShardedLockManager`,
as :class:`~repro.service.manager.LockManager` is ``LockCore``'s — that

* routes ``read``/``write`` operations to the owning shard via a
  pluggable :class:`~repro.service.sharding.partitioner.Partitioner`
  (hash or range, on the item id);
* tracks each session's **shard-span** — sessions whose declared access
  set lives on one shard are *local* and take a fast path (their commit
  is delegated wholesale to the home shard), sessions spanning several
  shards are *global* and pay for coordination;
* runs the **commit gate globally**: the per-shard constraint registries
  are aggregated into one merged constraint graph, a committing writer
  parks until every recorded predecessor on every touched shard has
  finished, and the **order guard** additionally holds back reads of
  items that a live transitive predecessor (computed on the merged
  graph) will write;
* installs a cross-shard commit in one synchronous call over in-process
  shards, so the client-side serializability replay
  (:func:`repro.db.serializability.check_serializable`) passes unchanged
  on a multi-shard deployment.

The core calls its in-process shards directly; no operation here runs
an eager first step (only the wire connection does).  See
``docs/SHARDING.md`` for the design write-up, the request-lifecycle
diagram of a cross-shard commit, and the documented limitations
(per-shard priority inheritance; cross-shard cycles are resolved by
victim abort rather than prevented by a global ceiling).
"""

from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro import _lazy_surface

if TYPE_CHECKING:  # pragma: no cover
    from repro.model.spec import TaskSet
    from repro.service.core import ServiceConfig

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    __name__: ("deploy",),  # defined below
    "repro.service.sharding.coordinator": ("ShardedLockManager",),
    "repro.service.sharding.core": ("GlobalSession", "ShardedCore"),
    "repro.service.sharding.partitioner": (
        "HashPartitioner", "Partitioner", "RangePartitioner",
        "make_partitioner",
    ),
})


async def deploy(
    catalog: "TaskSet",
    protocol: str,
    config: "Optional[ServiceConfig]" = None,
    *,
    shards: int = 1,
    shard_procs: int = 0,
    partitioner: str = "hash",
) -> Tuple[Optional[Any], Any]:
    """Build a deployment; returns ``(supervisor, manager)``.

    ``shard_procs > 1`` spawns that many ``repro shard-host`` processes
    behind a coordinator (``shards`` is then ignored) and returns their
    supervisor; otherwise the supervisor is ``None`` and the manager runs
    in-process, sharded when ``shards > 1``.  The caller owns teardown:
    ``await manager.shutdown()``, then ``await supervisor.stop()``.
    """
    if shard_procs > 1:
        from repro.service.sharding.procs import start_proc_deployment

        return await start_proc_deployment(
            catalog, protocol, shards=shard_procs, config=config,
            partitioner=partitioner,
        )
    from repro.service.manager import LockManager
    from repro.service.sharding.coordinator import ShardedLockManager

    if shards > 1:
        return None, ShardedLockManager(
            catalog, protocol, config, shards=shards, partitioner=partitioner
        )
    return None, LockManager(catalog, protocol, config)
