"""2PL-HP — two-phase locking with high-priority conflict resolution
(Abbott & Garcia-Molina).

The abort-based alternative the paper's Section 2 discusses: on a
conflict, if the requester's priority is higher than *every* conflicting
holder's, the holders are aborted and restarted and the requester proceeds;
otherwise the requester waits.  Priority inversion is avoided without
ceilings, but at the cost of wasted (re-executed) work — and, as the paper
notes, restarts make worst-case schedulability analysis intractable
because the number of restarts of a low-priority transaction is unbounded.

Deadlock-free: a transaction only ever waits for strictly-higher-priority
holders (priorities compared on *base* priority; there is no inheritance in
2PL-HP), so wait-for edges always point up the priority order and cannot
cycle.  Instances of the same transaction share a base priority, but they
request items in identical program order, which also precludes mutual
waiting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.interfaces import (
    AbortAndGrant,
    ConcurrencyControlProtocol,
    Deny,
    Grant,
    InstallPolicy,
)
from repro.model.spec import LockMode
from repro.protocols.base import register_protocol
from repro.protocols.pip_2pl import classical_conflicts

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job


@register_protocol
class TwoPLHP(ConcurrencyControlProtocol):
    """High-priority two-phase locking (abort-based)."""

    name = "2pl-hp"
    install_policy = InstallPolicy.AT_COMMIT
    can_deadlock = False

    def decide(self, job: "Job", item: str, mode: LockMode):
        conflicting = classical_conflicts(self, job, item, mode)
        if not conflicting:
            return Grant("compatible")
        if all(h.base_priority < job.base_priority for h in conflicting):
            return AbortAndGrant(conflicting, "high-priority abort")
        return Deny(
            conflicting,
            "conflict blocking: waiting for higher-priority holder",
            inherit=False,
        )
