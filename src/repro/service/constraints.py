"""The ``reader ≺ writer`` serialization-order constraint graph.

PCP-DA's LC3/LC4 let a reader pass an item's write lock; the reader is
then serialized *before* the still-running writer, and the service must
remember that order until one of the two finishes (the commit gate and
the order guard in :mod:`repro.service.manager` enforce it).  This module
is the one home of that bookkeeping.  :class:`ConstraintGraph` is
instantiated three times, over three kinds of node:

* :class:`~repro.service.manager.LockManager` — over live jobs;
* :class:`~repro.service.sharding.coordinator.ShardedLockManager` — over
  global sessions, the union of every shard's edges;
* :class:`~repro.service.sharding.procs.proxy.RemoteShardProxy` — over the
  mirror jobs of a shard host's legs, fed by ``constraint`` event frames.

An edge ``pred ≺ succ`` lives until either end is dropped (it finished).
The graph does not refuse a cycle: a single manager's order guard keeps
its own graph acyclic, but edges recorded on different shards can cross,
and the deadlock machinery resolves the gate cycle that follows.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Hashable, Set

_NO_NODES: frozenset = frozenset()


class ConstraintGraph:
    """Forward and reverse adjacency of ``≺`` plus a memoised closure."""

    __slots__ = ("_pred", "_succ", "_closure")

    def __init__(self) -> None:
        #: _pred[w] = {r: r ≺ w}, _succ[r] = {w: r ≺ w}; no empty buckets.
        self._pred: Dict[Hashable, Set[Hashable]] = {}
        self._succ: Dict[Hashable, Set[Hashable]] = {}
        #: node -> transitive predecessors, dirtied on every edge edit.
        self._closure: Dict[Hashable, Set[Hashable]] = {}

    def __bool__(self) -> bool:
        """Whether any edge is recorded."""
        return bool(self._pred)

    def add(self, pred: Hashable, succ: Hashable) -> bool:
        """Record ``pred ≺ succ``; ``False`` when the edge already exists
        (nothing changed, so callers have nothing to announce)."""
        succs = self._succ.setdefault(pred, set())
        if succ in succs:
            return False
        succs.add(succ)
        self._pred.setdefault(succ, set()).add(pred)
        self._closure.clear()
        return True

    def drop(self, node: Hashable) -> None:
        """Remove ``node`` and every edge at it (it finished)."""
        succs = self._succ.pop(node, _NO_NODES)
        preds = self._pred.pop(node, _NO_NODES)
        for succ in succs:
            self._unlink(self._pred, succ, node)
        for pred in preds:
            self._unlink(self._succ, pred, node)
        if succs or preds:
            self._closure.clear()
        else:
            self._closure.pop(node, None)

    @staticmethod
    def _unlink(adjacency: Dict, node: Hashable, neighbour: Hashable) -> None:
        bucket = adjacency.get(node)
        if bucket is not None:  # absent on a self-loop: already popped
            bucket.discard(neighbour)
            if not bucket:
                del adjacency[node]

    def direct_preds(self, node: Hashable) -> AbstractSet[Hashable]:
        """Nodes with an edge ``p ≺ node``.  Read-only view."""
        return self._pred.get(node, _NO_NODES)

    def preds(self, node: Hashable) -> Set[Hashable]:
        """Every node serialized before ``node``, transitively; ``node``
        itself is never among them, even on a cycle.

        Memoised per node until the next edge edit, so repeated gate and
        guard evaluations between lock churns cost one dict probe.
        Callers must not mutate the returned set.
        """
        cached = self._closure.get(node)
        if cached is not None:
            return cached
        seen: Set[Hashable] = set()
        stack = [node]
        while stack:
            for pred in self._pred.get(stack.pop(), _NO_NODES):
                if pred != node and pred not in seen:
                    seen.add(pred)
                    stack.append(pred)
        self._closure[node] = seen
        return seen
