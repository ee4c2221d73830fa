"""The deliberately weakened PCP-DA variant of the paper's Example 5.

Section 7 derives LC3/LC4 by showing that the naive pair of conditions

1. ``P_i > Sysceil_i``
2. ``P_i >= HPW(x)``

suffices for single-blocking but **not** for deadlock freedom: condition
(2) lacks the ``x ∉ WriteSet(T*)`` and ``No_Rlock(x)`` guards, and
Example 5 exhibits a two-transaction deadlock under it.  This protocol
implements exactly conditions (1)/(2) so the library can reproduce that
deadlock and demonstrate why the real LC3/LC4 are shaped the way they are.

Run it with ``SimConfig(deadlock_action="halt")`` to capture the cycle in
the result instead of raising.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.ceilings import CeilingTable
from repro.core.locking_conditions import sysceil_and_tstar, system_ceiling
from repro.engine.interfaces import Deny, Grant, InstallPolicy
from repro.model.spec import LockMode, TaskSet
from repro.protocols.base import CeilingProtocolBase, register_protocol

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job


@register_protocol
class WeakPCPDA(CeilingProtocolBase):
    """PCP-DA with conditions (1)/(2) instead of LC2/LC3/LC4 — deadlocks."""

    name = "weak-pcp-da"
    install_policy = InstallPolicy.AT_COMMIT
    can_deadlock = True

    def decide(self, job: "Job", item: str, mode: LockMode):
        if mode is LockMode.WRITE:
            other_readers = tuple(
                sorted(self.table.readers_of(item) - {job}, key=lambda j: j.seq)
            )
            if not other_readers:
                return Grant("LC1")
            return Deny(
                other_readers,
                "conflict blocking: write-lock denied, item is read-locked",
            )
        # Read request: naive conditions (1) or (2).
        sysceil, blockers = sysceil_and_tstar(self.table, self.ceilings, job)
        if job.running_priority > sysceil:
            return Grant("cond(1) P>Sysceil")
        if job.running_priority >= self.ceilings.hpw(item):
            return Grant("cond(2) P>=HPW")
        return Deny(blockers, "ceiling blocking: conditions (1) and (2) false")

    def system_ceiling(self, exclude: "Optional[Job]" = None) -> int:
        return system_ceiling(self.table, self.ceilings, exclude)

    def compile_table(self):
        """Same ceilings as full PCP-DA, but the naive conditions (1)/(2)
        and no waiter exemption (which is why it deadlocks)."""
        from repro.engine.kernel.tables import (
            FAMILY_WEAK_PCPDA,
            LEVEL_READ_WCEIL,
            ProtocolTable,
        )

        return ProtocolTable(
            protocol=self.name,
            family=FAMILY_WEAK_PCPDA,
            level_source=LEVEL_READ_WCEIL,
            select_readers=True,
            ceilings=self.ceilings,
            read_grant_rules=("cond(1) P>Sysceil", "cond(2) P>=HPW"),
        )
