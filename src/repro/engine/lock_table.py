"""The lock table: who holds which lock in which mode.

The table is deliberately *policy-free*: it records grants and releases and
answers queries, while every admission decision lives in the protocol
objects.  This split keeps each protocol's rules readable against the paper
text and lets all protocols share one bookkeeping implementation.

Unusual-but-intentional capabilities (required by PCP-DA):

* multiple concurrent *write* holders on one item — the paper's Case 3
  treats blind writes as non-conflicting, so PCP-DA grants co-existing
  write locks (commit order decides the final value);
* a reader co-existing with a writer on the same item (Case 1) — the reader
  observes the committed version while the writer's value sits in its
  workspace.

Stricter protocols simply never grant such combinations.

This module is also the home of :class:`CeilingIndex`, the incrementally
maintained max-structure over per-item ceiling levels.  The table itself
does not use it: the array kernel — the one listener a table notifies of
every grant and release — keeps it current and answers ``Sysceil`` from it.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
)

from repro._compat import DATACLASS_SLOTS
from repro.exceptions import ProtocolError
from repro.model.spec import DUMMY_PRIORITY, LockMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job


@dataclass(**DATACLASS_SLOTS)
class LockEntry:
    """Holders of one data item, by mode."""

    readers: "Set[Job]" = field(default_factory=set)
    writers: "Set[Job]" = field(default_factory=set)

    @property
    def holders(self) -> "FrozenSet[Job]":
        return frozenset(self.readers | self.writers)

    @property
    def empty(self) -> bool:
        return not self.readers and not self.writers


class CeilingIndex:
    """Lazy max-heap over per-key ceiling levels: the one incremental
    ``Sysceil`` structure.  The array kernel owns the only instance,
    keyed by item id (:mod:`repro.engine.kernel.core`); the protocols'
    object path walks the lock table from scratch instead and is the
    reference this structure is checked against.

    Maintenance contract ("bump on grant, lazy-max-repair on release"):

    * :meth:`update` records a key's current level and **pushes** a heap
      entry whenever the level changed, so the heap always holds an entry
      for every key's *current* level;
    * nothing is ever removed eagerly; outdated entries (the key's level
      changed, or it dropped to ``DUMMY_PRIORITY``) are recognised
      against ``_level`` and discarded when they surface at the heap top
      during a query.

    Queries therefore cost O(stale + skipped + |answer|) heap operations;
    with low churn the top of the heap is almost always the answer.
    """

    __slots__ = ("_heap", "_level")

    def __init__(self) -> None:
        self._heap: List[Tuple[int, Hashable]] = []  # (-level, key), lazy
        self._level: Dict[Hashable, int] = {}        # key -> live level

    def update(self, key: Hashable, level: int) -> None:
        """Record ``key``'s current ceiling level (``DUMMY_PRIORITY``: it
        raises no ceiling)."""
        if level == self._level.get(key, DUMMY_PRIORITY):
            return
        if level == DUMMY_PRIORITY:
            del self._level[key]
        else:
            self._level[key] = level
            heapq.heappush(self._heap, (-level, key))

    def top(self) -> int:
        """Highest live level (``DUMMY_PRIORITY`` when there is none);
        amortised O(1), only outdated entries are popped."""
        heap = self._heap
        live = self._level
        while heap:
            neg, key = heap[0]
            if live.get(key) == -neg:
                return -neg
            heapq.heappop(heap)
        return DUMMY_PRIORITY

    def scan(
        self, qualifies: Callable[[Hashable], object]
    ) -> Tuple[int, List[Hashable]]:
        """Highest level among the keys ``qualifies`` accepts, plus every
        accepted key at that level; ``(DUMMY_PRIORITY, [])`` when none is.

        Keys are visited in descending level order.  Outdated heap
        entries met on the way down are discarded permanently; live ones,
        whether accepted or skipped, are pushed back.
        """
        heap = self._heap
        live = self._level
        restore: List[Tuple[int, Hashable]] = []
        level = DUMMY_PRIORITY
        keys: List[Hashable] = []
        while heap:
            entry = heap[0]
            neg, key = entry
            if live.get(key) != -neg:
                heapq.heappop(heap)  # outdated: drop for good
                continue
            if -neg < level:
                break  # everything below the found level is irrelevant
            heapq.heappop(heap)
            if restore and restore[-1] == entry:
                continue  # duplicate: equal entries surface back to back
            restore.append(entry)
            if qualifies(key):
                level = -neg
                keys.append(key)
        for entry in restore:
            heapq.heappush(heap, entry)
        return level, keys

    def self_check(self, expected: Dict[Hashable, int]) -> None:
        """Assert the recorded levels equal ``expected`` (key -> level,
        ceiling-free keys absent) and the heap still holds an entry for
        each (differential-battery hook)."""
        if expected != self._level:
            raise AssertionError(
                f"ceiling index diverged: incremental={self._level} "
                f"rescan={expected}"
            )
        missing = set(expected.items()) - {
            (key, -neg) for neg, key in self._heap
        }
        if missing:
            raise AssertionError(
                f"ceiling index heap lost live levels: {sorted(missing)}"
            )


class LockTable:
    """Mapping of item name to :class:`LockEntry`, plus per-job indexes."""

    __slots__ = ("_entries", "_held_by_job", "_kernel_state")

    def __init__(self) -> None:
        self._entries: Dict[str, LockEntry] = {}
        self._held_by_job: "Dict[Job, Dict[str, Set[LockMode]]]" = {}
        self._kernel_state = None

    def attach_kernel_state(self, state) -> None:
        """Install the array kernel's lock-word mirror (one per table); it
        is rebuilt from the live entries and then notified of every
        grant/release (see :mod:`repro.engine.kernel.core`)."""
        self._kernel_state = state
        state.rebuild(self)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def grant(self, job: "Job", item: str, mode: LockMode) -> None:
        """Record that ``job`` now holds ``item`` in ``mode``.

        Granting a mode the job already holds is an error — the engine
        checks for held locks before consulting the protocol.
        """
        entry = self._entries.get(item)
        if entry is None:
            entry = self._entries[item] = LockEntry()
        side = entry.readers if mode is LockMode.READ else entry.writers
        if job in side:
            raise ProtocolError(f"{job.name} already holds {mode} lock on {item!r}")
        side.add(job)
        by_job = self._held_by_job.get(job)
        if by_job is None:
            by_job = self._held_by_job[job] = {}
        modes = by_job.get(item)
        if modes is None:
            modes = by_job[item] = set()
        modes.add(mode)
        if self._kernel_state is not None:
            self._kernel_state.on_grant(job, item, mode)

    def release(self, job: "Job", item: str, mode: LockMode) -> None:
        """Release one lock (CCP's early unlock path)."""
        entry = self._entries.get(item)
        side = entry.readers if (entry and mode is LockMode.READ) else (
            entry.writers if entry else None
        )
        if entry is None or side is None or job not in side:
            raise ProtocolError(f"{job.name} does not hold {mode} lock on {item!r}")
        side.discard(job)
        modes = self._held_by_job.get(job, {}).get(item)
        if modes:
            modes.discard(mode)
            if not modes:
                del self._held_by_job[job][item]
        if entry.empty:
            del self._entries[item]
        if self._kernel_state is not None:
            self._kernel_state.on_release(job, item, mode)

    def release_all(self, job: "Job") -> Tuple[Tuple[str, LockMode], ...]:
        """Release every lock ``job`` holds; returns what was released."""
        released: List[Tuple[str, LockMode]] = []
        for item, modes in list(self._held_by_job.get(job, {}).items()):
            for mode in list(modes):
                self.release(job, item, mode)
                released.append((item, mode))
        self._held_by_job.pop(job, None)
        return tuple(released)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def readers_of(self, item: str) -> "FrozenSet[Job]":
        """Jobs holding a read lock on ``item``."""
        entry = self._entries.get(item)
        return frozenset(entry.readers) if entry else frozenset()

    def writers_of(self, item: str) -> "FrozenSet[Job]":
        """Jobs holding a write lock on ``item``."""
        entry = self._entries.get(item)
        return frozenset(entry.writers) if entry else frozenset()

    def holders_of(self, item: str) -> "FrozenSet[Job]":
        """Jobs holding any lock on ``item``."""
        entry = self._entries.get(item)
        return entry.holders if entry else frozenset()

    def holds(self, job: "Job", item: str, mode: LockMode) -> bool:
        """Whether ``job`` holds ``item`` in exactly ``mode``."""
        return mode in self._held_by_job.get(job, {}).get(item, ())

    def holds_any(self, job: "Job", item: str) -> bool:
        """Whether ``job`` holds ``item`` in any mode."""
        return bool(self._held_by_job.get(job, {}).get(item))

    def held_modes(self, job: "Job", item: str) -> "Optional[Set[LockMode]]":
        """Modes ``job`` holds on ``item`` (``None`` when none) — one dict
        walk where a pair of ``holds()`` calls would take two (the
        dispatcher's per-pick needs-lock test lives on this)."""
        held = self._held_by_job.get(job)
        return held.get(item) if held is not None else None

    def items_held_by(self, job: "Job") -> "Dict[str, FrozenSet[LockMode]]":
        """``{item: modes}`` for every lock ``job`` currently holds."""
        return {
            item: frozenset(modes)
            for item, modes in self._held_by_job.get(job, {}).items()
        }

    def iter_items_held_by(self, job: "Job") -> "Iterable[str]":
        """Item names ``job`` holds locks on, without building new sets
        (hot path: IPCP's priority floor walks this per recomputation)."""
        held = self._held_by_job.get(job)
        return held.keys() if held else ()

    def read_locked_items(self, exclude: "Job" = None) -> Tuple[str, ...]:
        """Items currently read-locked by some job other than ``exclude``."""
        out = []
        for item, entry in self._entries.items():
            readers = entry.readers - {exclude} if exclude else entry.readers
            if readers:
                out.append(item)
        return tuple(sorted(out))

    def locked_items(self, exclude: "Job" = None) -> Tuple[str, ...]:
        """Items locked (any mode) by some job other than ``exclude``."""
        out = []
        for item, entry in self._entries.items():
            holders = entry.holders - {exclude} if exclude else entry.holders
            if holders:
                out.append(item)
        return tuple(sorted(out))

    def all_entries(self) -> "Dict[str, LockEntry]":
        """Live view of the table, read-only: the protocols' ceiling
        walks, the kernel's rebuild and self-check, tests."""
        return self._entries
