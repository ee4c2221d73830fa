"""PCP-DA — the Priority Ceiling Protocol with Dynamic Adjustment of
serialization order (the paper's contribution, Section 5).

Summary of the rules (see :mod:`repro.core.locking_conditions` for the
precise predicates):

* update-in-workspace model — writes are deferred and installed at commit,
  so the serialization order between conflicting transactions stays
  adjustable until commit time;
* one static ceiling per item, ``Wceil(x)``, in effect only while ``x`` is
  read-locked — write locks never raise any ceiling because deferred
  writes are *preemptable operations* (Lemma 1);
* a write lock is granted iff no other transaction read-locks the item
  (LC1); concurrent write locks are allowed (blind writes, Case 3);
* a read lock is granted iff LC2, LC3 or LC4 holds and the Table-1
  condition against current write holders passes;
* denial makes the responsible transactions (``T*`` for ceiling denials,
  the conflicting holders otherwise) inherit the requester's priority.

Guarantees (proved in the paper, verified by this library's test suite):
single-blocking (Theorem 1), deadlock freedom (Theorem 2), serializability
(Theorem 3), and zero restarts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.core.ceilings import CeilingTable
from repro.core.locking_conditions import evaluate_conditions, system_ceiling
from repro.engine.interfaces import (
    ConcurrencyControlProtocol,
    Deny,
    Grant,
    InstallPolicy,
)
from repro.model.spec import LockMode, TaskSet

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job
    from repro.engine.lock_table import LockTable


class PCPDA(ConcurrencyControlProtocol):
    """The paper's protocol.

    Args:
        enable_lc3: admit reads through LC3 (default True).  Disabling is
            for the ablation study only.
        enable_lc4: admit reads through LC4 (default True).  Ditto.
        enable_table1_check: enforce the Table-1 ``DataRead ∩ WriteSet``
            condition on reads of write-locked items (default True).
            The paper argues LC2/LC3 imply it; we keep it on uniformly as
            a belt-and-braces guard.  The flag exists for the ablation
            study, which found the two variants empirically
            indistinguishable on a single processor.
    """

    name = "pcp-da"
    install_policy = InstallPolicy.AT_COMMIT
    can_deadlock = False

    def __init__(
        self,
        *,
        enable_lc3: bool = True,
        enable_lc4: bool = True,
        enable_table1_check: bool = True,
    ):
        super().__init__()
        self._ceilings: Optional[CeilingTable] = None
        self._enable_lc3 = enable_lc3
        self._enable_lc4 = enable_lc4
        self._enable_table1_check = enable_table1_check

    def bind(self, taskset: TaskSet, table: "LockTable") -> None:
        super().bind(taskset, table)
        self._ceilings = CeilingTable(taskset)

    @property
    def ceilings(self) -> CeilingTable:
        assert self._ceilings is not None, "protocol used before bind()"
        return self._ceilings

    def decide(self, job: "Job", item: str, mode: LockMode):
        report = evaluate_conditions(
            job,
            item,
            mode,
            self.table,
            self.ceilings,
            enable_lc3=self._enable_lc3,
            enable_lc4=self._enable_lc4,
            enable_table1_check=self._enable_table1_check,
            waiters_on_requester=self.waiters_on(job),
        )
        if report.granted:
            return Grant(report.rule)
        return Deny(report.blockers, report.reason)

    def system_ceiling(self, exclude: "Optional[Job]" = None) -> int:
        """``Sysceil`` with respect to ``exclude`` (global when ``None``)."""
        return system_ceiling(self.table, self.ceilings, exclude)

    def compile_table(self):
        """PCP-DA's decision table for the array kernel: read-lock-only
        ``Wceil`` ceilings, waiter-exempt exclusion, LC1..LC4 plus the
        Table-1 footnote, with the ablation flags carried through."""
        from repro.engine.kernel.tables import (
            FAMILY_PCPDA,
            LEVEL_READ_WCEIL,
            ProtocolTable,
        )

        return ProtocolTable(
            protocol=self.name,
            family=FAMILY_PCPDA,
            level_source=LEVEL_READ_WCEIL,
            select_readers=True,
            ceilings=self.ceilings,
            waiter_exempt=True,
            enable_lc3=self._enable_lc3,
            enable_lc4=self._enable_lc4,
            enable_table1=self._enable_table1_check,
            read_grant_rules=("LC2", "LC3", "LC4"),
        )

    def describe(self) -> str:
        suffix = []
        if not self._enable_lc3:
            suffix.append("LC3 off")
        if not self._enable_lc4:
            suffix.append("LC4 off")
        if not self._enable_table1_check:
            suffix.append("Table-1 check off")
        return self.name + (f" ({', '.join(suffix)})" if suffix else "")
