"""One record for every way a request waits.

A request served by the lock manager can be held back for four reasons
(docs/SERVICE.md "Park kinds" has the table: who blocks, what wakes it,
how a cycle through it is treated):

* the protocol denied the lock (:attr:`ParkKind.LOCK`);
* the **order guard** held a read back because a transaction serialized
  before the requester may still write the item;
* a **commit fence** held a read back while a write holder installs
  across shards;
* the **commit gate** parks a commit until every transaction serialized
  before it has finished.

Whichever it is, the waiting request is one :class:`Park` in its
manager's registry (``LockCore.parks`` keyed by session,
``ShardedLockManager.parks`` keyed by global session): what it waits
for, on whom, since when, and — once the wait is over — how it ended.
The deadlock classifier, the grant queue and the ``waiting_sessions``
gauge all read that one record; the kind is set where the denial is
built (:class:`ServiceDeny`), never recovered from a reason string.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.engine.interfaces import Deny
from repro.model.spec import LockMode

#: The item a commit-gate park records in its block interval and is
#: indexed under: a commit waits for no lock.
COMMIT_ITEM = "<commit>"


class ParkKind(enum.Enum):
    """What a parked request is waiting for.

    The values are the prefixes of the denial reasons and the names the
    coordinator's messages use, so they can be printed as they are.
    """

    LOCK = "lock"
    ORDER_GUARD = "order guard"
    COMMIT_FENCE = "commit fence"
    COMMIT_GATE = "commit gate"

    @property
    def service_made(self) -> bool:
        """Whether the wait exists only because the service drops the
        paper's single-CPU assumption.  Theorem 2 does not cover such a
        wait, so a cycle through one is resolved by aborting a victim
        rather than reported as an invariant violation."""
        return self is not ParkKind.LOCK

    @classmethod
    def of(cls, deny: Deny) -> "ParkKind":
        """The kind of park a denial causes."""
        return deny.kind if isinstance(deny, ServiceDeny) else cls.LOCK


@dataclass(frozen=True)
class ServiceDeny(Deny):
    """A denial decided by the service ahead of the protocol.

    Attributes:
        kind: which service-level rule denied the request; its value
            opens the ``reason``.
    """

    kind: ParkKind = ParkKind.ORDER_GUARD


@dataclass(eq=False)
class Park:
    """One parked request.

    Attributes:
        session: the waiting session (a ``Session`` in a lock manager, a
            ``GlobalSession`` in the shard coordinator).
        kind: what it waits for.
        blockers: whom it waits on — jobs in a lock manager, global
            sessions in the coordinator.  For a lock-path park this is
            the blame set of the latest denial: the jobs whose lock
            churn can flip the decision.
        parked_at: service-clock time the wait began.
        item, mode: the request, for parks made on the lock path
            (:data:`COMMIT_ITEM` and write mode for the commit gate).
        reason: the denying rule of the latest decision.
        decided_priority: the requester's running priority when last
            decided; a later change can flip LC2/LC3, so any delta
            re-queues the park.
        ended: whether the wait is over.
        outcome: how it ended — the grant rule, ``None`` for a woken
            commit gate, or the exception the waiting operation raises.
    """

    session: Any
    kind: ParkKind
    blockers: Tuple[Any, ...]
    parked_at: float
    item: Optional[str] = None
    mode: Optional[LockMode] = None
    reason: str = ""
    decided_priority: int = 0
    ended: bool = False
    outcome: Any = None

    def describe(self) -> str:
        """``"T2#7: lock write(x) denied by 'LC1 ...'"`` for diagnostics."""
        request = f" {self.mode.value}({self.item})" if self.mode else ""
        return (
            f"{self.session.name}: {self.kind.value}{request} "
            f"denied by {self.reason!r}"
        )
