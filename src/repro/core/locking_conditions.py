"""PCP-DA's locking conditions LC1..LC4 as inspectable predicates.

Exposing the conditions separately from the protocol object serves two
purposes: the tests pin each worked example to *which* condition fired
(the paper narrates "LC4 is true because T* = T4 and z ∉ WriteSet(T4)"),
and the ablation benchmarks can disable individual conditions to measure
their contribution.

Quantities involved (paper, Section 5):

* ``Sysceil_i`` — highest ``Wceil(x)`` among items **read-locked** by
  transactions other than ``T_i``.
* ``T*`` — the transaction holding the read lock whose ``Wceil`` equals
  ``Sysceil_i``.  Lemma 6 proves it unique in the situations where LC3/LC4
  consult it; the implementation nevertheless collects the full set and
  requires the conditions to hold for *every* member, which is equivalent
  in the proven-unique cases and conservative otherwise.
* ``HPW(x)`` — highest priority of a transaction that may write ``x``
  (statically equal to ``Wceil(x)``).
* The Table-1 footnote condition for reading a write-locked item:
  ``DataRead(holder) ∩ WriteSet(requester) = ∅`` (see
  :mod:`repro.core.compatibility`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, FrozenSet, Optional, Set, Tuple

from repro.core.ceilings import CeilingTable
from repro.model.spec import DUMMY_PRIORITY, LockMode

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.job import Job
    from repro.engine.lock_table import LockTable


@dataclass(frozen=True)
class ConditionReport:
    """Full evaluation of a PCP-DA lock request.

    Attributes:
        mode: requested lock mode.
        sysceil: ``Sysceil_i`` at request time.
        tstar: jobs holding read locks at the ceiling level (``T*``).
        lc1..lc4: truth of each locking condition (``None`` when the
            condition does not apply to this mode).
        footnote_ok: Table-1 condition against current write holders of the
            item (always True when the item is not write-locked by others).
        footnote_violators: write holders failing the footnote condition.
        granted: overall admission decision.
        rule: the first condition that admitted the request, or "".
        blockers: jobs to blame (and boost) on denial.
        reason: denial classification ("conflict blocking" /
            "ceiling blocking" / footnote text).
    """

    mode: LockMode
    sysceil: int
    tstar: "Tuple[Job, ...]"
    lc1: Optional[bool]
    lc2: Optional[bool]
    lc3: Optional[bool]
    lc4: Optional[bool]
    footnote_ok: bool
    footnote_violators: "Tuple[Job, ...]"
    granted: bool
    rule: str
    blockers: "Tuple[Job, ...]"
    reason: str


def _exclusion_set(exclude) -> "FrozenSet[Job]":
    """Normalise ``exclude`` (None, one job, or a collection) to a set."""
    if exclude is None:
        return frozenset()
    if isinstance(exclude, (set, frozenset, list, tuple)):
        return frozenset(exclude)
    return frozenset({exclude})


def sysceil_and_tstar(
    table: "LockTable", ceilings: CeilingTable, exclude=None
) -> "Tuple[int, Tuple[Job, ...]]":
    """``(Sysceil, T*)`` in one walk of the lock table.

    ``Sysceil`` is the highest ``Wceil(x)`` among items read-locked by a
    job outside ``exclude`` (a job, a collection of jobs, or ``None``);
    ``T*`` the jobs outside ``exclude`` holding read locks at that level,
    by release sequence.  Write locks never raise a ceiling (Lemma 1), and
    items nobody writes (``Wceil = DUMMY_PRIORITY``) contribute nothing.

    The exclusion set matters beyond "not my own locks": per Lemma 8 /
    Theorem 2, jobs transitively blocked *on the requester* must not raise
    the requester's ceiling either (see ``evaluate_conditions``).

    This from-scratch walk is the object path's only ceiling computation
    and the reference the array kernel's incremental
    :class:`~repro.engine.lock_table.CeilingIndex` is verified against.
    """
    excluded = _exclusion_set(exclude)
    wceil = ceilings.wceil
    level = DUMMY_PRIORITY
    tstar: "Set[Job]" = set()
    for item, entry in table.all_entries().items():
        if not entry.readers:
            continue
        ceil = wceil(item)
        if ceil < level or ceil == DUMMY_PRIORITY:
            continue
        readers = entry.readers - excluded
        if not readers:
            continue
        if ceil > level:
            level, tstar = ceil, readers
        else:
            tstar |= readers
    return level, tuple(sorted(tstar, key=lambda j: j.seq))


def system_ceiling(
    table: "LockTable", ceilings: CeilingTable, exclude=None
) -> int:
    """``Sysceil`` alone (see :func:`sysceil_and_tstar`)."""
    return sysceil_and_tstar(table, ceilings, exclude)[0]


def evaluate_conditions(
    job: "Job",
    item: str,
    mode: LockMode,
    table: "LockTable",
    ceilings: CeilingTable,
    *,
    enable_lc3: bool = True,
    enable_lc4: bool = True,
    enable_table1_check: bool = True,
    waiters_on_requester=(),
) -> ConditionReport:
    """Evaluate LC1..LC4 (and the Table-1 footnote) for one request.

    ``enable_lc3`` / ``enable_lc4`` / ``enable_table1_check`` exist for the
    ablation study; the real protocol leaves all of them on.  The paper
    remarks that LC2/LC3 never need the Table-1
    ``DataRead(holder) ∩ WriteSet(requester)`` check explicitly; we enforce
    it uniformly anyway as a belt-and-braces guard, and extensive fuzzing
    (200k random workloads plus the exhaustive two-transaction
    enumeration) could not distinguish the protocol with the check from
    the protocol without it — empirical support for the paper's
    implication argument on a single processor.

    ``waiters_on_requester`` must contain the jobs transitively blocked
    waiting on ``job``.  Their read locks are exempt from the ceiling
    computations (``Sysceil``, ``T*``, LC4's ``No_Rlock``): a waiter makes
    no progress until the requester commits, so per Lemma 8 / Theorem 2
    its locks must not block the requester — otherwise a genuine wait
    cycle arises (see DESIGN.md §2.10 and
    tests/test_theorem2_waiter_exemption.py).  The Table-1 consistency
    check still applies against *all* write holders, waiters included,
    and LC1 still respects waiters' read locks (write-over-waiting-reader
    is unsafe).
    """
    priority = job.running_priority
    ceiling_excluded = frozenset({job}) | frozenset(waiters_on_requester)

    if mode is LockMode.WRITE:
        other_readers = tuple(
            sorted(table.readers_of(item) - {job}, key=lambda j: j.seq)
        )
        lc1 = not other_readers
        if lc1:
            return ConditionReport(
                mode=mode, sysceil=system_ceiling(table, ceilings, job),
                tstar=(), lc1=True, lc2=None, lc3=None, lc4=None,
                footnote_ok=True, footnote_violators=(),
                granted=True, rule="LC1", blockers=(), reason="",
            )
        return ConditionReport(
            mode=mode, sysceil=system_ceiling(table, ceilings, job),
            tstar=(), lc1=False, lc2=None, lc3=None, lc4=None,
            footnote_ok=True, footnote_violators=(),
            granted=False, rule="", blockers=other_readers,
            reason="conflict blocking: write-lock denied, item is read-locked",
        )

    # ---- read request -------------------------------------------------
    sysceil, tstar = sysceil_and_tstar(table, ceilings, ceiling_excluded)
    write_set = job.spec.write_set

    # Table-1 footnote against the item's current write holders.
    writers = tuple(
        sorted(table.writers_of(item) - {job}, key=lambda j: j.seq)
    )
    violators = tuple(
        w for w in writers if w.data_read & write_set
    )
    if not enable_table1_check:
        violators = ()
    footnote_ok = not violators

    lc2 = priority > sysceil
    hpw = ceilings.hpw(item)
    item_outside_tstar_writes = all(item not in t.spec.write_set for t in tstar)
    lc3 = bool(enable_lc3) and priority > hpw and bool(tstar) and item_outside_tstar_writes
    other_readers = table.readers_of(item) - ceiling_excluded
    lc4 = (
        bool(enable_lc4)
        and priority == hpw
        and not other_readers
        and bool(tstar)
        and item_outside_tstar_writes
        and all(not (t.data_read & write_set) for t in tstar)
    )

    if footnote_ok and (lc2 or lc3 or lc4):
        rule = "LC2" if lc2 else ("LC3" if lc3 else "LC4")
        return ConditionReport(
            mode=mode, sysceil=sysceil, tstar=tstar,
            lc1=None, lc2=lc2, lc3=lc3, lc4=lc4,
            footnote_ok=True, footnote_violators=(),
            granted=True, rule=rule, blockers=(), reason="",
        )

    if not footnote_ok:
        blockers: "Tuple[Job, ...]" = violators
        reason = (
            "conflict blocking: DataRead(holder) ∩ WriteSet(requester) ≠ ∅ "
            "(Table 1 * condition)"
        )
    else:
        blockers = tstar
        reason = "ceiling blocking: LC2/LC3/LC4 all false"
    return ConditionReport(
        mode=mode, sysceil=sysceil, tstar=tstar,
        lc1=None, lc2=lc2, lc3=lc3, lc4=lc4,
        footnote_ok=footnote_ok, footnote_violators=violators,
        granted=False, rule="", blockers=blockers, reason=reason,
    )
