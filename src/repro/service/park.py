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
core's registry (``LockCore.parks`` keyed by session,
``ShardedCore.parks`` keyed by global session): what it waits
for, on whom, since when, and — once the wait is over — how it ended.
The deadlock classifier, the grant queue and the ``waiting_sessions``
gauge all read that one record; the kind is set where the denial is
built (:class:`ServiceDeny`), never recovered from a reason string.

A fifth record has no kind: the **remote park** a shard proxy returns
for a request sent to a shard host, ended by the host's response.  It
joins no wait-for graph and no registry; a lock wait behind it reaches
the coordinator as the host's ``wait`` frame.

Every park ends the same way, through :func:`end_park`, whoever ends
it; an event-loop adapter that awaits a park puts a ``waker`` on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.engine.interfaces import Deny
from repro.model.spec import LockMode

#: The item a commit-gate park records in its block interval: a commit
#: waits for no lock.
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
        session: the waiting session (a ``Session`` in a lock core, a
            ``GlobalSession`` in the shard coordinator, the leg — or
            ``None`` for a ``begin`` — in a remote park).
        kind: what it waits for; ``None`` for a remote park.
        blockers: whom it waits on — jobs in a lock manager, global
            sessions in the coordinator.  In a lock manager this is the
            blame set of the latest denial, for every kind: the jobs
            whose release can flip it, and the only ones whose release
            re-examines it.
        parked_at: service-clock time the wait began.
        item, mode: the request, for parks made on the lock path
            (:data:`COMMIT_ITEM` and write mode for the commit gate).
        reason: the denying rule of the latest decision.
        decided_priority: the requester's running priority when last
            decided; a later change can flip LC2/LC3, so any delta
            re-queues the park.
        ended: whether the wait is over.
        outcome: how it ended — the grant rule, ``None`` for a cleared
            commit gate, the exception the waiting operation raises, or
            for a remote park the response future.
        waker: called once when the park ends, if set (the adapter
            awaiting it).
    """

    session: Any
    kind: Optional[ParkKind]
    blockers: Tuple[Any, ...]
    parked_at: float
    item: Optional[str] = None
    mode: Optional[LockMode] = None
    reason: str = ""
    decided_priority: int = 0
    ended: bool = False
    outcome: Any = None
    waker: Optional[Callable[[], None]] = None

    def describe(self) -> str:
        """``"T2#7: lock write(x) denied by 'LC1 ...'"`` for diagnostics."""
        request = f" {self.mode.value}({self.item})" if self.mode else ""
        return (
            f"{self.session.name}: {self.kind.value}{request} "
            f"denied by {self.reason!r}"
        )


def end_park(park: Park, outcome: Any) -> None:
    """End ``park`` with ``outcome`` and wake whoever awaits it: the one
    way a park ends, for the lock core, the sharded core and the proxy."""
    park.ended = True
    park.outcome = outcome
    if park.waker is not None:
        park.waker()
