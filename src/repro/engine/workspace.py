"""Private transaction workspaces (the update-in-workspace model).

Section 4 of the paper: "before a transaction commits, it reads and updates
data items only in its private workspace, and then data items are written
into the database only upon successful commit."

A :class:`Workspace` buffers a job's writes and remembers which installed
version each of its reads observed — the latter is what lets the
serializability checker bind reads to versions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro._compat import DATACLASS_SLOTS


@dataclass(**DATACLASS_SLOTS)
class ReadRecord:
    """A read performed by the owning job.

    Attributes:
        item: data item read.
        version_seq: install sequence of the version observed; ``None`` when
            the read was satisfied from the job's own buffered write.
        time: when the read was performed.
        value: the value observed (used by the value-replay oracle).
    """

    item: str
    version_seq: Optional[int]
    time: float
    value: Any = None


class Workspace:
    """Buffered writes and read bookkeeping for one job."""

    def __init__(self) -> None:
        self._writes: Dict[str, Any] = {}
        self._reads: Dict[str, ReadRecord] = {}

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def buffer_write(self, item: str, value: Any) -> None:
        """Record a deferred write (latest write to an item wins)."""
        self._writes[item] = value

    def has_write(self, item: str) -> bool:
        """Whether the job has buffered a write to ``item``."""
        return item in self._writes

    def written_value(self, item: str) -> Any:
        """The buffered value of ``item`` (KeyError when never written)."""
        return self._writes[item]

    @property
    def pending_writes(self) -> Dict[str, Any]:
        """The updates to install at commit (copy; callers may not mutate)."""
        return dict(self._writes)

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def note_read(
        self,
        item: str,
        version_seq: Optional[int],
        time: float,
        value: Any = None,
    ) -> None:
        """Remember the version a read observed (first read of an item wins;
        later re-reads see the same version under lock-until-commit)."""
        if item not in self._reads:
            self._reads[item] = ReadRecord(item, version_seq, time, value)

    def read_record(self, item: str) -> Optional[ReadRecord]:
        """The recorded read of ``item``, or ``None`` when never read.

        Used by the live service to answer re-reads under a held lock with
        the same observed version (the simulator keeps the value implicit,
        but a service client expects the value back on every read).
        """
        return self._reads.get(item)

    def external_reads(self) -> Dict[str, Any]:
        """``{item: observed value}`` for reads of *committed* versions
        (own-write reads excluded) — the inputs of the value-replay oracle."""
        return {
            record.item: record.value
            for record in self._reads.values()
            if record.version_seq is not None
        }

    @property
    def reads(self) -> Tuple[ReadRecord, ...]:
        return tuple(self._reads.values())

    def read_items(self) -> Tuple[str, ...]:
        """Items this workspace has recorded reads for."""
        return tuple(self._reads)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def discard(self) -> None:
        """Throw the workspace away (abort / restart)."""
        self._writes.clear()
        self._reads.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Workspace(writes={sorted(self._writes)}, "
            f"reads={sorted(self._reads)})"
        )
