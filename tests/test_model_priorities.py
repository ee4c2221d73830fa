"""Unit tests for priority assignment (repro.model.priorities)."""

import pytest

from repro.exceptions import SpecificationError
from repro.model.priorities import assign_by_order, assign_rate_monotonic
from repro.model.spec import TaskSet, TransactionSpec, read


def _spec(name, period=None, offset=0.0):
    return TransactionSpec(name, (read("x"),), period=period, offset=offset)


class TestRateMonotonic:
    def test_shorter_period_gets_higher_priority(self):
        ts = TaskSet([_spec("slow", 20.0), _spec("fast", 5.0), _spec("mid", 10.0)])
        assigned = assign_rate_monotonic(ts)
        assert assigned.priority_of("fast") == 3
        assert assigned.priority_of("mid") == 2
        assert assigned.priority_of("slow") == 1

    def test_tie_broken_by_name(self):
        ts = TaskSet([_spec("B", 10.0), _spec("A", 10.0)])
        assigned = assign_rate_monotonic(ts)
        assert assigned.priority_of("A") > assigned.priority_of("B")

    def test_requires_periods(self):
        ts = TaskSet([_spec("A")])
        with pytest.raises(SpecificationError):
            assign_rate_monotonic(ts)

    def test_priorities_form_total_order(self):
        ts = TaskSet([_spec(f"T{i}", float(10 + i)) for i in range(6)])
        assigned = assign_rate_monotonic(ts)
        priorities = sorted(s.priority for s in assigned)
        assert priorities == [1, 2, 3, 4, 5, 6]


class TestAssignByOrder:
    def test_first_is_highest(self):
        ts = assign_by_order([_spec("T1"), _spec("T2"), _spec("T3")])
        assert ts.priority_of("T1") == 3
        assert ts.priority_of("T2") == 2
        assert ts.priority_of("T3") == 1

    def test_empty_rejected(self):
        with pytest.raises(SpecificationError):
            assign_by_order([])

    def test_result_ordered_descending(self):
        ts = assign_by_order([_spec("T1"), _spec("T2")])
        assert ts.names == ("T1", "T2")
