"""RW-PCP-A — the abortion-strategy variant of the ceiling protocol.

Section 2 of the paper: "Some studies [18,19,21] adopted the abortion
strategy for enhancing the system schedulability and reducing the
transaction blocking time.  While they can reduce the blocking time of
transactions at the expense of abortion and re-execution overheads, they
complicate the system schedulability analysis."

This protocol makes that trade-off concrete on top of RW-PCP's admission
rule: when a request fails the ceiling test and *every* job responsible
has a lower base priority, those jobs are **aborted and restarted** and
the lock is granted, so a higher-priority transaction is never delayed by
a lower-priority one.  When some responsible job has equal or higher base
priority, the requester waits as in RW-PCP (with inheritance).

Updates are deferred to commit (aborts need no undo), which — as with
2PL-HP — leaves the locking behaviour identical to the update-in-place
original because RW-PCP admits no reader concurrent with a writer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.interfaces import AbortAndGrant, Deny, InstallPolicy
from repro.model.spec import LockMode
from repro.protocols.base import register_protocol
from repro.protocols.rw_pcp import RWPCP

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job


@register_protocol
class RWPCPAbort(RWPCP):
    """RW-PCP with high-priority abort instead of blocking."""

    name = "rw-pcp-abort"
    install_policy = InstallPolicy.AT_COMMIT
    can_deadlock = False

    def decide(self, job: "Job", item: str, mode: LockMode):
        """RW-PCP's decision, except that a denial whose every blocker
        has a lower base priority aborts them and grants instead."""
        decision = super().decide(job, item, mode)
        if (
            isinstance(decision, Deny)
            and decision.blockers
            and all(h.base_priority < job.base_priority
                    for h in decision.blockers)
        ):
            return AbortAndGrant(
                decision.blockers,
                "ceiling abort: restart lower-priority holders",
            )
        return decision

    def compile_table(self):
        """Object path: the abort branch above diverges from the RW-PCP
        table this class would otherwise inherit."""
        return None
