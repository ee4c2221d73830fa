"""Executable versions of the paper's Lemmas (Section 7).

:class:`LemmaCheckingPCPDA` behaves exactly like
:class:`~repro.core.pcp_da.PCPDA` but verifies, at every decision point and
priority recomputation, the intermediate facts the paper's proofs rest on:

* **Lemma 1** — an item that is only write-locked never causes a denial
  (write operations are preemptable);
* **Lemma 2** — every transaction blamed for a denial holds at least one
  read lock at that moment;
* **Lemma 3** — a transaction's inherited priority never exceeds the
  highest ``Wceil`` among the items it has read-locked;
* **Lemma 4** — every lower-priority transaction blamed for blocking
  ``T_H`` has read-locked an item with ``Wceil ≥ P_H``;
* **Lemma 5** — when a job requests a lock, at most one transaction of
  lower priority holds a read lock on an item with ``Wceil ≥`` the
  requester's priority;
* **Lemma 6** — when LC2 fails, the ceiling-holder ``T*`` is unique.

A violation raises :class:`~repro.exceptions.InvariantViolation`
immediately, with the offending state in the message.  The test suite runs
random workloads under this protocol; if our reconstruction of the locking
conditions were wrong in a way that breaks the proofs, these monitors are
where it would surface first.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.locking_conditions import sysceil_and_tstar
from repro.core.pcp_da import PCPDA
from repro.engine.interfaces import Deny, Grant
from repro.exceptions import InvariantViolation
from repro.model.spec import DUMMY_PRIORITY, LockMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job


class LemmaCheckingPCPDA(PCPDA):
    """PCP-DA with the paper's lemmas asserted at runtime.

    Registered separately so it can be requested by name in stress tests:
    ``make_protocol("pcp-da-checked")``.
    """

    name = "pcp-da-checked"

    def compile_table(self):
        """Opt out of the array kernel: the whole point of this protocol
        is that ``decide()`` runs the lemma assertions, so the engine must
        not route decisions around it."""
        return None

    # ------------------------------------------------------------------
    # Helpers over the live lock table
    # ------------------------------------------------------------------
    def _read_locked_items_of(self, job: "Job") -> Tuple[str, ...]:
        return tuple(
            item
            for item, modes in self.table.items_held_by(job).items()
            if LockMode.READ in modes
        )

    def _max_read_ceiling_of(self, job: "Job") -> int:
        return max(
            (self.ceilings.wceil(item) for item in self._read_locked_items_of(job)),
            default=DUMMY_PRIORITY,
        )

    # ------------------------------------------------------------------
    # Lemma checks
    # ------------------------------------------------------------------
    def _check_lemma_1_and_2(self, decision: Deny, requester: "Job") -> None:
        for blocker in decision.blockers:
            held = self.table.items_held_by(blocker)
            read_locked = [
                item for item, modes in held.items() if LockMode.READ in modes
            ]
            if not read_locked:
                raise InvariantViolation(
                    f"Lemma 1/2 violated: {blocker.name} blocks "
                    f"{requester.name} while holding only write locks "
                    f"({sorted(held)})"
                )

    def _check_lemma_3(self) -> None:
        for job in self._jobs_seen:
            if not job.state.active:
                continue
            ceiling = self._max_read_ceiling_of(job)
            limit = max(job.base_priority, ceiling)
            if job.running_priority > limit:
                raise InvariantViolation(
                    f"Lemma 3 violated: {job.name} runs at "
                    f"{job.running_priority} > max(base={job.base_priority}, "
                    f"max Wceil of read-locked items={ceiling})"
                )

    def _check_lemma_4(self, decision: Deny, requester: "Job") -> None:
        p_h = requester.running_priority
        for blocker in decision.blockers:
            if blocker.base_priority >= requester.base_priority:
                continue  # the lemma concerns lower-priority blockers
            items = self._read_locked_items_of(blocker)
            if not any(self.ceilings.wceil(item) >= p_h for item in items):
                raise InvariantViolation(
                    f"Lemma 4 violated: lower-priority {blocker.name} blocks "
                    f"{requester.name} (P={p_h}) without read-locking any "
                    f"item with Wceil >= {p_h}; it read-locks {items} with "
                    f"ceilings {[self.ceilings.wceil(i) for i in items]}"
                )

    def _check_lemma_5(self, requester: "Job") -> None:
        p_i = requester.running_priority
        culprits = set()
        for item in self.table.read_locked_items(exclude=requester):
            if self.ceilings.wceil(item) < p_i:
                continue
            for holder in self.table.readers_of(item):
                if holder is requester:
                    continue
                if holder.base_priority < requester.base_priority:
                    culprits.add(holder)
        if len(culprits) > 1:
            raise InvariantViolation(
                f"Lemma 5 violated: {sorted(j.name for j in culprits)} all "
                f"read-lock items with Wceil >= P({requester.name})={p_i}"
            )

    def _check_lemma_6(self, requester: "Job") -> None:
        sysceil, tstar = sysceil_and_tstar(
            self.table, self.ceilings, requester
        )
        if requester.running_priority > sysceil:
            return  # LC2 holds; T* is not consulted
        lower = [t for t in tstar if t.base_priority < requester.base_priority]
        if len(lower) > 1:
            raise InvariantViolation(
                f"Lemma 6 violated: T* is not unique for {requester.name}: "
                f"{sorted(j.name for j in lower)}"
            )

    # ------------------------------------------------------------------
    # Instrumented decide
    # ------------------------------------------------------------------
    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self._jobs_seen: "set[Job]" = set()
        self.checks_performed = 0

    def decide(self, job: "Job", item: str, mode: LockMode):
        self._jobs_seen.add(job)
        if mode is LockMode.READ:
            self._check_lemma_5(job)
            self._check_lemma_6(job)
        decision = super().decide(job, item, mode)
        if isinstance(decision, Deny):
            self._check_lemma_1_and_2(decision, job)
            self._check_lemma_4(decision, job)
        self._check_lemma_3()
        self.checks_performed += 1
        return decision

    # NOTE: no check in ``on_release_all`` — the engine calls it while a
    # commit is mid-transition (locks already released, inheritance not yet
    # recomputed), where Lemma 3 transiently "fails" by construction.  The
    # decide-time checks observe only settled states.


# Make the checked variant constructible by name.
from repro.protocols.base import register_protocol  # noqa: E402

register_protocol(LemmaCheckingPCPDA)
