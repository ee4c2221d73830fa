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
maintained level buckets over per-item ceiling levels.  The table itself
does not use it: the array kernel — the one listener a table notifies of
every grant and release — keeps it current and answers ``Sysceil`` from it.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
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


#: A key that raises no ceiling: ``(level, holders)`` of a free item.
NO_CEILING: Tuple[int, int] = (DUMMY_PRIORITY, 0)


class CeilingIndex:
    """Level buckets over per-key ceilings: the one incremental ``Sysceil``
    structure.  The array kernel owns the only instance, keyed by item id
    (:mod:`repro.engine.kernel.core`); the protocols' object path walks
    the lock table from scratch instead and is the reference this
    structure is checked against.

    A key's ceiling is a ``(level, holders)`` pair: the level its locks
    raise and the bit-word of the job slots whose locks raise it
    (:data:`NO_CEILING` when it raises none; a live level always has a
    holder).  Per live level the index keeps

    * how many of that level's keys each holder bit appears in, and
    * the union of those holder words,

    with the live levels in sorted order.  :meth:`update` touches only
    the bits that changed; :meth:`scan` with an exclusion word is one AND
    per level from the top, and :meth:`top` is the first live level.
    """

    __slots__ = ("_ceiling", "_levels", "_union", "_count")

    def __init__(self) -> None:
        self._ceiling: Dict[Hashable, Tuple[int, int]] = {}  # key -> live ceiling
        self._levels: List[int] = []        # live levels, ascending
        self._union: Dict[int, int] = {}    # level -> OR of its holder words
        #: level -> {holder bit: number of the level's keys it holds}
        self._count: Dict[int, Dict[int, int]] = {}

    def update(self, key: Hashable, level: int, holders: int) -> None:
        """Record ``key``'s current ceiling: ``level`` raised by the jobs in
        ``holders`` (``DUMMY_PRIORITY`` and ``0``: it raises none)."""
        old_level, old_holders = self._ceiling.get(key, NO_CEILING)
        if level == old_level:
            if holders == old_holders:
                return
            gained, lost = holders & ~old_holders, old_holders & ~holders
        else:
            gained, lost = holders, old_holders
        # Count the gained bits in first, so a level that keeps a holder
        # never leaves the sorted list.
        if gained:
            counts = self._count.get(level)
            if counts is None:
                counts = self._count[level] = {}
                self._union[level] = gained
                insort(self._levels, level)
            else:
                self._union[level] |= gained
            while gained:
                bit = gained & -gained
                gained ^= bit
                counts[bit] = counts.get(bit, 0) + 1
        if lost:
            counts = self._count[old_level]
            union = self._union[old_level]
            while lost:
                bit = lost & -lost
                lost ^= bit
                left = counts[bit] - 1
                if left:
                    counts[bit] = left
                else:
                    del counts[bit]
                    union ^= bit  # no other key at the level holds it
            if union:
                self._union[old_level] = union
            else:
                del self._count[old_level], self._union[old_level]
                self._levels.remove(old_level)
        if holders:
            self._ceiling[key] = (level, holders)
        else:
            del self._ceiling[key]

    def top(self) -> int:
        """Highest live level (``DUMMY_PRIORITY`` when there is none)."""
        return self._levels[-1] if self._levels else DUMMY_PRIORITY

    def scan(self, excluded: int) -> Tuple[int, int]:
        """Highest level with a holder outside the ``excluded`` word, plus
        the union of those holders over every key at that level;
        ``(DUMMY_PRIORITY, 0)`` when no level has one."""
        keep = ~excluded
        union = self._union
        for level in reversed(self._levels):
            holders = union[level] & keep
            if holders:
                return level, holders
        return NO_CEILING

    def self_check(self, expected: Dict[Hashable, Tuple[int, int]]) -> None:
        """Assert the recorded ceilings equal ``expected`` (key ->
        ``(level, holders)``, ceiling-free keys absent) and the buckets
        equal those re-derived from it (differential-battery hook)."""
        if expected != self._ceiling:
            raise AssertionError(
                f"ceiling index diverged: incremental={self._ceiling} "
                f"rescan={expected}"
            )
        rebuilt = CeilingIndex()
        for key, (level, holders) in expected.items():
            rebuilt.update(key, level, holders)
        if (rebuilt._levels, rebuilt._union, rebuilt._count) != (
            self._levels, self._union, self._count
        ):
            raise AssertionError(
                f"ceiling index buckets diverged: incremental="
                f"{self._union} rescan={rebuilt._union}"
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
