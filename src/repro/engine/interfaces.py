"""The contract between the simulator and a concurrency-control protocol.

A protocol answers exactly one question — *may this job take this lock right
now?* — through :meth:`ConcurrencyControlProtocol.decide`, returning one of
three decisions:

* :class:`Grant` — take the lock; carries the rule that fired (e.g. "LC2"),
  which the trace records so tests can pin the paper's examples rule-by-rule.
* :class:`Deny` — block; carries the jobs responsible, which then inherit
  the requester's priority (the paper's priority-inheritance mechanism).
* :class:`AbortAndGrant` — abort the listed victims and then take the lock
  (only abort-based baselines such as 2PL-HP ever return this; PCP-DA never
  restarts a transaction).

Protocols also declare an :class:`InstallPolicy`: PCP-DA and other
workspace-model protocols install writes at commit; RW-PCP / CCP follow the
paper's update-in-place assumption and install at write-operation time.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Optional, Tuple

from repro.model.spec import DUMMY_PRIORITY, LockMode, TaskSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job
    from repro.engine.lock_table import LockTable


class InstallPolicy(enum.Enum):
    """When a transaction's writes become visible in the database."""

    #: Deferred updates: buffered in the private workspace, installed
    #: atomically at commit (update-in-workspace model; PCP-DA).
    AT_COMMIT = "at_commit"
    #: Immediate updates: installed when the write operation completes
    #: (update-in-place model; RW-PCP, CCP, original PCP).
    AT_WRITE = "at_write"


@dataclass(frozen=True)
class Grant:
    """Permission to take the lock.

    Attributes:
        rule: name of the locking condition that admitted the request
            ("LC1".."LC4" for PCP-DA; protocol-specific strings otherwise).
    """

    rule: str = ""


@dataclass(frozen=True)
class Deny:
    """The request must wait.

    Attributes:
        blockers: jobs responsible for the denial; they inherit the
            requester's running priority while it waits.
        reason: human-readable cause, recorded in the trace
            (e.g. "ceiling blocking", "conflict blocking").
    """

    blockers: "Tuple[Job, ...]"
    reason: str = ""
    #: Whether the blockers inherit the waiter's priority.  True for every
    #: protocol in the paper's family; 2PL-HP and plain 2PL set False.
    inherit: bool = True


@dataclass(frozen=True)
class AbortAndGrant:
    """Abort the victims, then grant the requester (2PL-HP style)."""

    victims: "Tuple[Job, ...]"
    reason: str = ""


Decision = object  # union of Grant | Deny | AbortAndGrant (py>=3.9 friendly)


class ConcurrencyControlProtocol(abc.ABC):
    """Base class every protocol implements.

    Lifecycle: the simulator calls :meth:`bind` once before the run, then
    :meth:`decide` for each lock request of a *running* job,
    :meth:`on_granted` after recording a grant in the lock table,
    :meth:`after_operation` when an operation completes (CCP's early-unlock
    hook), and :meth:`on_release_all` when a job commits or aborts.

    Class attributes:
        name: registry key (``"pcp-da"``, ``"rw-pcp"``, ...).
        install_policy: when writes are installed.
        can_deadlock: whether the protocol admits wait-for cycles.  The
            simulator *always* runs cycle detection; for protocols declaring
            ``can_deadlock = False`` a detected cycle is reported as an
            invariant violation rather than resolved.
    """

    name: ClassVar[str] = ""
    install_policy: ClassVar[InstallPolicy] = InstallPolicy.AT_COMMIT
    can_deadlock: ClassVar[bool] = False

    def __init__(self) -> None:
        self._taskset: Optional[TaskSet] = None
        self._table: Optional["LockTable"] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def bind(self, taskset: TaskSet, table: "LockTable") -> None:
        """Attach the protocol to a run's task set and lock table.

        Subclasses extending this must call ``super().bind(...)``.
        """
        self._taskset = taskset
        self._table = table

    def bind_runtime(self, wait_graph) -> None:
        """Attach the live wait-for graph (called by the simulator).

        Ceiling protocols consult it to exempt transactions that are
        transitively blocked on a requester from that requester's lock
        test (the paper's Lemma 8 / Theorem 2 machinery).
        """
        self._wait_graph = wait_graph

    def waiters_on(self, job: "Job"):
        """Jobs transitively blocked waiting on ``job`` (empty set when no
        wait graph is attached, e.g. in protocol-level unit tests)."""
        graph = getattr(self, "_wait_graph", None)
        if graph is None:
            return set()
        return graph.transitive_waiters_on(job)

    @property
    def taskset(self) -> TaskSet:
        assert self._taskset is not None, "protocol used before bind()"
        return self._taskset

    @property
    def table(self) -> "LockTable":
        assert self._table is not None, "protocol used before bind()"
        return self._table

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def decide(self, job: "Job", item: str, mode: LockMode) -> Decision:
        """Admission decision for ``job`` requesting ``mode`` on ``item``.

        Called only when the job does not already hold the requested mode;
        lock upgrades (read held, write requested) do reach this method.
        """

    def on_granted(self, job: "Job", item: str, mode: LockMode) -> None:
        """Hook after a grant was recorded in the lock table."""

    def compile_table(self):
        """Compiled decision table for the array kernel, or ``None``.

        Called after :meth:`bind`.  A protocol returning a
        :class:`repro.engine.kernel.tables.ProtocolTable` has its
        ``decide`` / ``system_ceiling`` answered by the integer kernel
        (byte-identically); returning ``None`` — the default — keeps the
        object path.  Subclasses whose ``decide`` diverges from an
        inherited implementation must override this back to ``None``.
        """
        return None

    def after_operation(self, job: "Job", op_index: int) -> Tuple[Tuple[str, LockMode], ...]:
        """Locks to release early after the job finished operation ``op_index``.

        The default (2PL) releases nothing before commit.  CCP overrides
        this to implement its early-unlock rule.
        """
        return ()

    def priority_floor(self, job: "Job") -> int:
        """Protocol-imposed lower bound on the job's running priority.

        The engine computes ``running = max(base, floor, inherited)``.
        The default floor is the dummy priority (no effect); the immediate
        priority ceiling protocol raises it to the ceilings of the locks
        the job holds.
        """
        return DUMMY_PRIORITY

    def before_commit(self, job: "Job") -> "Tuple[Job, ...]":
        """Jobs to abort when ``job`` commits (validation-based protocols).

        Called at the start of commit processing, before the job's writes
        are installed.  OCC with broadcast commit returns the active
        transactions whose reads the committing writes invalidate; locking
        protocols return nothing (the default).
        """
        return ()

    def on_release_all(self, job: "Job") -> None:
        """Hook after all of ``job``'s locks were released (commit/abort)."""

    # ------------------------------------------------------------------
    # Introspection (tracing, figures)
    # ------------------------------------------------------------------
    def system_ceiling(self, exclude: "Optional[Job]" = None) -> int:
        """Current system priority ceiling, from ``exclude``'s point of view.

        The global ceiling (``exclude=None``) is what the paper plots as
        the ``Max_Sysceil`` dotted line in Figures 4 and 5.  Protocols with
        no ceiling concept return :data:`DUMMY_PRIORITY`.
        """
        return DUMMY_PRIORITY

    def describe(self) -> str:
        """One-line description used in reports."""
        return self.name or type(self).__name__
