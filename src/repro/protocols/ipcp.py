"""IPCP — the immediate priority ceiling protocol (ceiling locking).

The industrial sibling of the original PCP (POSIX's
``PTHREAD_PRIO_PROTECT``, Ada's Ceiling_Locking): the moment a transaction
locks an item, its priority is *immediately* raised to the item's ceiling
``Aceil(x)``, instead of waiting for someone to actually block (PCP's lazy
inheritance).  Included as a baseline because it achieves the original
PCP's worst-case blocking bound with a strikingly different runtime
signature:

* on a single processor a lock request can **never** be denied — while a
  transaction holds ``x`` it runs at ``>= Aceil(x)``, so any transaction
  that could compete for ``x`` (priority ``<= Aceil(x)``) is simply not
  dispatched;
* consequently the "blocking" of the PCP literature shows up here as
  *dispatch interference* (a just-released high-priority transaction waits
  for the elevated low one to finish its critical section), not as lock
  waits — the run metrics show zero blocking time but the same worst-case
  response times as the original PCP.

Locks are exclusive, as in the original PCP; updates install in place.
The worst-case analysis is the original PCP's (``bts_original_pcp``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.engine.interfaces import Deny, Grant, InstallPolicy
from repro.model.spec import DUMMY_PRIORITY, LockMode
from repro.protocols.base import CeilingProtocolBase, register_protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job
    from repro.engine.lock_table import LockEntry


@register_protocol
class IPCP(CeilingProtocolBase):
    """Immediate priority ceiling protocol (exclusive ceiling locking)."""

    name = "ipcp"
    install_policy = InstallPolicy.AT_WRITE
    can_deadlock = False

    def __init__(self) -> None:
        super().__init__()
        #: Per-job running maximum of held-lock ceilings (see
        #: :meth:`priority_floor` for why this cache is exact).
        self._floor_of: "Dict[Job, int]" = {}

    def _item_ceiling(self, item: str, entry: "LockEntry") -> int:
        return self.ceilings.aceil(item)

    def priority_floor(self, job: "Job") -> int:
        """The job runs at least at the highest ceiling it holds.

        Called for every active job on every priority recomputation, so
        the answer is served from :attr:`_floor_of` — a per-job running
        maximum bumped on every grant and cleared when the job's locks go
        away together.  The cache is exact because IPCP never releases a
        single lock early (no ``after_operation``): a job's held-ceiling
        maximum only grows until ``on_release_all`` resets it.
        """
        return self._floor_of.get(job, DUMMY_PRIORITY)

    def on_granted(self, job: "Job", item: str, mode: LockMode) -> None:
        """Bump the job's cached priority floor to the item's ceiling."""
        level = self.ceilings.aceil(item)
        if level > self._floor_of.get(job, DUMMY_PRIORITY):
            self._floor_of[job] = level

    def on_release_all(self, job: "Job") -> None:
        """Drop the cached floor with the job's last lock."""
        self._floor_of.pop(job, None)

    def decide(self, job: "Job", item: str, mode: LockMode):
        holders = self.table.holders_of(item) - {job}
        if not holders:
            return Grant("ceiling-elevated")
        # Unreachable on a single processor (see module docstring), but a
        # correct answer is required for robustness.
        return Deny(
            tuple(sorted(holders, key=lambda j: j.seq)),
            "conflict blocking: item held (unexpected under IPCP)",
        )

    def compile_table(self):
        """IPCP for the array kernel: grant iff the item is free; the
        ceiling shows up through :meth:`priority_floor` (object-side),
        while the Aceil levels back the ``system_ceiling`` samples."""
        from repro.engine.kernel.tables import (
            FAMILY_IPCP,
            LEVEL_ACEIL,
            ProtocolTable,
        )

        return ProtocolTable(
            protocol=self.name,
            family=FAMILY_IPCP,
            level_source=LEVEL_ACEIL,
            select_readers=False,
            ceilings=self.ceilings,
            read_grant_rules=("ceiling-elevated",),
            conflict_reason="conflict blocking: item held (unexpected under IPCP)",
        )
