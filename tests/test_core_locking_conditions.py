"""Unit tests for LC1..LC4 (repro.core.locking_conditions).

These tests drive the predicates directly against hand-built lock-table
states, pinning each condition to the paper's definition.
"""

import pytest

from repro.core.ceilings import CeilingTable
from repro.core.locking_conditions import (
    evaluate_conditions,
    sysceil_and_tstar,
    system_ceiling,
)
from repro.engine.job import Job
from repro.engine.lock_table import LockTable
from repro.model.priorities import assign_by_order
from repro.model.spec import DUMMY_PRIORITY, LockMode, TransactionSpec, read, write


def _setup():
    """Four transactions mirroring Example 4's shape.

    T1: Read(x); T2: Write(y); T3: Read(z), Write(z); T4: Read(y), Write(x).
    Priorities: T1=4 > T2=3 > T3=2 > T4=1.
    """
    ts = assign_by_order([
        TransactionSpec("T1", (read("x"),)),
        TransactionSpec("T2", (write("y"),)),
        TransactionSpec("T3", (read("z"), write("z"))),
        TransactionSpec("T4", (read("y"), write("x"))),
    ])
    jobs = {name: Job(ts[name], 0, 0.0) for name in ts.names}
    return ts, jobs, LockTable(), CeilingTable(ts)


class TestSystemCeiling:
    def test_dummy_when_nothing_read_locked(self):
        _, jobs, table, ceilings = _setup()
        assert system_ceiling(table, ceilings) == DUMMY_PRIORITY
        assert sysceil_and_tstar(table, ceilings) == (DUMMY_PRIORITY, ())

    def test_write_locks_raise_no_ceiling(self):
        """Lemma 1: write operations are preemptable."""
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "x", LockMode.WRITE)
        assert system_ceiling(table, ceilings) == DUMMY_PRIORITY

    def test_read_lock_puts_wceil_in_effect(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)
        assert system_ceiling(table, ceilings) == 3  # Wceil(y) = P2

    def test_exclude_own_locks(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)
        assert system_ceiling(table, ceilings, exclude=jobs["T4"]) == DUMMY_PRIORITY

    def test_tstar_is_ceiling_holder(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)
        assert sysceil_and_tstar(table, ceilings) == (3, (jobs["T4"],))


class TestLC1:
    def test_grant_when_no_readers(self):
        _, jobs, table, ceilings = _setup()
        report = evaluate_conditions(
            jobs["T4"], "x", LockMode.WRITE, table, ceilings
        )
        assert report.granted and report.rule == "LC1"

    def test_grant_despite_other_writer(self):
        """Case 3: concurrent write locks are compatible."""
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T2"], "y", LockMode.WRITE)
        report = evaluate_conditions(
            jobs["T4"], "y", LockMode.WRITE, table, ceilings
        )
        # T4 doesn't write y in its declared set, but the predicate only
        # looks at lock state: no readers on y -> LC1.
        assert report.granted and report.rule == "LC1"

    def test_denied_when_read_locked_by_other(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T1"], "x", LockMode.READ)
        report = evaluate_conditions(
            jobs["T4"], "x", LockMode.WRITE, table, ceilings
        )
        assert not report.granted
        assert report.lc1 is False
        assert report.blockers == (jobs["T1"],)
        assert "conflict blocking" in report.reason

    def test_own_read_lock_does_not_block_upgrade(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T3"], "z", LockMode.READ)
        report = evaluate_conditions(
            jobs["T3"], "z", LockMode.WRITE, table, ceilings
        )
        assert report.granted and report.rule == "LC1"


class TestLC2:
    def test_grant_when_priority_above_sysceil(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)  # Sysceil = P2 = 3
        report = evaluate_conditions(
            jobs["T1"], "x", LockMode.READ, table, ceilings
        )
        assert report.granted and report.rule == "LC2"
        assert report.sysceil == 3

    def test_denied_at_equal_priority(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)  # Sysceil = P2
        report = evaluate_conditions(
            jobs["T2"], "y", LockMode.READ, table, ceilings
        )
        # P2 == Sysceil: LC2 false.  LC3 false (P2 !> HPW(y)=P2).  LC4:
        # y IS read-locked by T4 -> false.  Denied, blocker T* = T4.
        assert not report.granted
        assert report.lc2 is False
        assert report.blockers == (jobs["T4"],)
        assert "ceiling blocking" in report.reason


class TestLC3:
    def test_grant_above_hpw_when_tstar_does_not_write_item(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)   # T* = T4, Sysceil = 3
        # T3 requests read z: P3=2 < Sysceil -> LC2 false; HPW(z)=P3=2,
        # so LC3 (strict >) is false but LC4 applies (see below).  To
        # exercise LC3 we use T2 reading z: P2=3 > HPW(z)=2 and
        # z not in WriteSet(T4)... but LC2 would also be false only if
        # Sysceil >= P2 -> Sysceil = 3 = P2: LC2 false, LC3 true.
        report = evaluate_conditions(
            jobs["T2"], "z", LockMode.READ, table, ceilings
        )
        assert report.granted and report.rule == "LC3"

    def test_denied_when_item_in_tstar_write_set(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T3"], "z", LockMode.READ)   # T* = T3, Sysceil = P3=2
        # T4 (priority 1) requests read x... LC2: 1 > 2 false.
        # HPW(x) = P4 = 1, so LC3 strict > fails; use a requester above:
        # actually x in WriteSet(T4) itself; craft: T4 reads z? z in
        # WriteSet(T3) = {z} -> LC3 condition fails for any requester.
        report = evaluate_conditions(
            jobs["T4"], "z", LockMode.READ, table, ceilings
        )
        assert not report.granted
        assert report.blockers == (jobs["T3"],)

    def test_lc3_can_be_disabled(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)
        report = evaluate_conditions(
            jobs["T2"], "z", LockMode.READ, table, ceilings, enable_lc3=False
        )
        assert not report.granted


class TestLC4:
    def test_paper_example4_grant(self):
        """The exact LC4 grant of Example 4 at t=1."""
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)
        report = evaluate_conditions(
            jobs["T3"], "z", LockMode.READ, table, ceilings
        )
        assert report.granted and report.rule == "LC4"
        assert report.lc2 is False and report.lc3 is False
        assert report.tstar == (jobs["T4"],)

    def test_denied_when_item_read_locked_by_other(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)
        table.grant(jobs["T2"], "z", LockMode.READ)  # someone already reads z
        report = evaluate_conditions(
            jobs["T3"], "z", LockMode.READ, table, ceilings
        )
        assert not report.granted
        assert report.lc4 is False

    def test_denied_when_tstar_read_overlaps_requester_writes(self):
        """LC4's explicit DataRead(T*) ∩ WriteSet(T_i) check."""
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)
        jobs["T4"].data_read.add("z")  # pretend T* has read z
        report = evaluate_conditions(
            jobs["T3"], "z", LockMode.READ, table, ceilings
        )
        # WriteSet(T3) = {z}; DataRead(T4) now contains z -> LC4 false.
        assert not report.granted

    def test_lc4_can_be_disabled(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "y", LockMode.READ)
        report = evaluate_conditions(
            jobs["T3"], "z", LockMode.READ, table, ceilings, enable_lc4=False
        )
        assert not report.granted


class TestFootnoteCondition:
    def test_read_of_write_locked_item_checks_footnote(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T4"], "x", LockMode.WRITE)
        jobs["T4"].data_read.add("x_read_marker")
        # T1 writes nothing: footnote holds, LC2 grants (Sysceil dummy).
        report = evaluate_conditions(
            jobs["T1"], "x", LockMode.READ, table, ceilings
        )
        assert report.granted and report.footnote_ok

    def test_footnote_violation_denies_with_writer_blamed(self):
        _, jobs, table, ceilings = _setup()
        table.grant(jobs["T2"], "x", LockMode.WRITE)  # T2 write-locks x
        jobs["T2"].data_read.add("z")                 # and has read z
        # T3 writes z: DataRead(T2) ∩ WriteSet(T3) = {z} != empty set.
        report = evaluate_conditions(
            jobs["T3"], "x", LockMode.READ, table, ceilings
        )
        assert not report.granted
        assert not report.footnote_ok
        assert report.footnote_violators == (jobs["T2"],)
        assert report.blockers == (jobs["T2"],)
