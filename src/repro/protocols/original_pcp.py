"""The original priority ceiling protocol (Sha, Rajkumar, Lehoczky),
treating every data item as an exclusively-locked resource.

This is the protocol the paper's Section 1/2 positions as the starting
point: deadlock-free, single-blocking, but blind to read/write semantics —
concurrent readers are impossible, so it blocks even more than RW-PCP.
Included as the most conservative baseline of the family.

Rule: one static ceiling per item, ``ceil(x) = Aceil(x)``; ``T_i`` may lock
``x`` (in either mode — both are exclusive here) iff its priority is
strictly higher than the highest ceiling among items locked by other
transactions.  Because ``T_i`` accesses ``x``, ``ceil(x) >= P_i``, so the
ceiling test also subsumes the direct-conflict check.
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
class OriginalPCP(CeilingProtocolBase):
    """Single-ceiling, exclusive-access PCP."""

    name = "pcp"
    install_policy = InstallPolicy.AT_WRITE
    can_deadlock = False

    def _item_ceiling(self, item: str, entry: "LockEntry") -> int:
        return self.ceilings.aceil(item)

    def decide(self, job: "Job", item: str, mode: LockMode):
        sysceil, holders = self._sysceil_and_holders(job)
        if job.running_priority > sysceil:
            return Grant("P>Sysceil")
        item_holders = self.table.holders_of(item) - {job}
        reason = (
            "conflict blocking: item locked (exclusive access)"
            if item_holders
            else "ceiling blocking: P <= Sysceil"
        )
        return Deny(holders, reason)

    def compile_table(self):
        """Original PCP for the array kernel: every lock is exclusive and
        raises ``Aceil`` under the P>Sysceil rule."""
        from repro.engine.kernel.tables import LEVEL_ACEIL

        return self._compile_sysceil_table(
            LEVEL_ACEIL, "conflict blocking: item locked (exclusive access)"
        )
