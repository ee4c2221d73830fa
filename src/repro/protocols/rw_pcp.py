"""RW-PCP — the read/write priority ceiling protocol (Sha, Rajkumar, Son,
Chang), the first extension of the original PCP to transactions in hard
RTDBS and the paper's principal comparator.

Rules (paper, Section 3):

* each item has two static ceilings: ``Wceil(x)`` and ``Aceil(x)``;
* at runtime the *r/w priority ceiling* ``rwceil(x)`` is ``Aceil(x)`` while
  ``x`` is write-locked and ``Wceil(x)`` while it is (only) read-locked;
* ``T_i`` may take any lock iff its priority is strictly higher than
  ``Sysceil_i`` — the highest ``rwceil`` among items locked by transactions
  other than ``T_i``;
* on denial, the transaction holding the ceiling-setting item inherits the
  requester's priority;
* two-phase locking: all locks are held until commit.

RW-PCP assumes the update-in-place model; writes are installed when the
write operation executes (which is observationally safe because no other
transaction can hold any lock on a write-locked item).

The combination of the ceiling test and the ceiling definitions subsumes
explicit conflict checks: a write-locked item has ``rwceil = Aceil ≥``
every potential accessor's priority, and a read-locked item has ``rwceil =
Wceil ≥`` every potential writer's priority.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.interfaces import Deny, Grant, InstallPolicy
from repro.model.spec import LockMode
from repro.protocols.base import CeilingProtocolBase, register_protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job
    from repro.engine.lock_table import LockEntry


@register_protocol
class RWPCP(CeilingProtocolBase):
    """Read/write priority ceiling protocol."""

    name = "rw-pcp"
    install_policy = InstallPolicy.AT_WRITE
    can_deadlock = False

    def _item_ceiling(self, item: str, entry: "LockEntry") -> int:
        """``rwceil(x)``: ``Aceil`` while write-locked — by anyone, the
        requester included — ``Wceil`` while (only) read-locked."""
        if entry.writers:
            return self.ceilings.aceil(item)
        return self.ceilings.wceil(item)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    def decide(self, job: "Job", item: str, mode: LockMode):
        sysceil, holders = self._sysceil_and_holders(job)
        if job.running_priority > sysceil:
            return Grant("P>Sysceil")
        # Classify the blocking for the trace: conflict blocking when the
        # requested item itself is locked by another transaction, ceiling
        # blocking otherwise.
        item_holders = self.table.holders_of(item) - {job}
        if item_holders:
            reason = "conflict blocking: item locked and P <= Sysceil"
        else:
            reason = "ceiling blocking: P <= Sysceil"
        return Deny(holders, reason)

    def compile_table(self):
        """RW-PCP for the array kernel: the runtime r/w ceiling (Aceil
        while write-locked, Wceil otherwise) under the P>Sysceil rule.
        CCP inherits this table — its early-unlock hook stays object-side
        and only changes *when* locks are released, not the admission."""
        from repro.engine.kernel.tables import LEVEL_RW

        return self._compile_sysceil_table(
            LEVEL_RW, "conflict blocking: item locked and P <= Sysceil"
        )
