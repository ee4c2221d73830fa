"""The Theorem 2 waiter exemption — a deadlock our fuzzer found and the
reconstruction detail that removes it.

The paper's Lemma 8 asserts that a read lock acquired through LC3/LC4
"cannot block T*".  Read literally, the locking conditions do not make
that true: in the workload below, T2 (granted c through LC4 while T3 was
T*) later blocks on T3's read lock, T3 inherits, and T3's own read request
on c then fails every condition (LC4's ``No_Rlock`` sees T2's read lock) —
a two-transaction wait cycle, contradicting Theorem 2.

The reconstruction (DESIGN.md §2.10): transactions transitively blocked
*on the requester* are exempt from the requester's ceiling computations
(``Sysceil``, ``T*``, ``No_Rlock``).  A waiter cannot run until the
requester commits, so its read locks cannot represent future conflicting
writes against the requester; the Table-1 data-consistency condition still
applies against every write holder, waiters included, and LC1 still
respects waiters' read locks (granting a write over a waiting reader is
genuinely unsafe).
"""

import pytest

from repro.engine.simulator import SimConfig, Simulator
from repro.model.priorities import assign_by_order
from repro.model.spec import TransactionSpec, read, write
from repro.protocols import make_protocol
from repro.verify import (
    assert_value_replay_consistent,
    verify_pcp_da_run,
)


def _fuzzer_workload():
    """The minimal counterexample, verbatim from the fuzzing session."""
    return assign_by_order([
        TransactionSpec(
            "T1", (read("a", 2.0), read("b", 1.0), write("a", 1.0)), offset=1.0
        ),
        TransactionSpec(
            "T2", (read("c", 2.0), write("c", 1.0), read("a", 1.0)), offset=6.0
        ),
        TransactionSpec("T3", (read("a", 1.0), read("c", 1.0)), offset=5.0),
    ])


class TestWaiterExemption:
    def test_fuzzer_workload_completes(self):
        result = Simulator(
            _fuzzer_workload(), make_protocol("pcp-da")
        ).run()
        assert result.deadlock is None
        assert [j.finish_time for j in result.jobs] == [5.0, 10.0, 11.0]
        verify_pcp_da_run(result)
        assert_value_replay_consistent(result)

    def test_the_blocked_waiter_is_exempt_from_ceilings(self):
        """At t=9: T2 (blocked on T3's read lock of a) holds read+write
        locks on c; T3's read of c must pass — via LC2, because the only
        read-locked items belong to T2, which waits on T3."""
        result = Simulator(
            _fuzzer_workload(), make_protocol("pcp-da")
        ).run()
        t3_grants = result.trace.grants_for("T3#0")
        c_grant = next(g for g in t3_grants if g.item == "c")
        assert c_grant.time == 9.0
        assert c_grant.rule == "LC2"

    def test_lc4_guard_closes_the_writeset_variant_organically(self):
        """When T3 (the eventual T*) also WRITES c, T2's LC4 admission of
        c is denied up front (c ∈ WriteSet(T*)), so the dangerous shape —
        a waiter holding a write lock on an item whose reads the requester
        would invalidate — never forms; everything commits."""
        ts = assign_by_order([
            TransactionSpec(
                "T1", (read("a", 2.0), read("b", 1.0), write("a", 1.0)),
                offset=1.0,
            ),
            TransactionSpec(
                "T2", (read("c", 2.0), write("c", 1.0), read("a", 1.0)),
                offset=6.0,
            ),
            TransactionSpec(
                "T3", (read("a", 1.0), read("c", 1.0), write("c", 1.0)),
                offset=5.0,
            ),
        ])
        result = Simulator(ts, make_protocol("pcp-da")).run()
        assert result.deadlock is None
        denial = result.trace.denials_for("T2#0")[0]
        assert denial.time == 6.0 and "ceiling" in denial.rule
        verify_pcp_da_run(result)
        assert_value_replay_consistent(result)

    def test_table1_check_still_guards_waiters_writes(self):
        """Protocol-level check of the residual safety condition: the
        waiter exemption must NOT bypass the Table-1 condition against a
        waiting WRITE holder whose reads the requester would invalidate."""
        from repro.core.pcp_da import PCPDA
        from repro.engine.inheritance import WaitForGraph
        from repro.engine.interfaces import Deny
        from repro.engine.job import Job
        from repro.engine.lock_table import LockTable
        from repro.model.spec import LockMode

        ts = assign_by_order([
            TransactionSpec("W", (read("y", 1.0), write("x", 1.0))),
            TransactionSpec("R", (read("x", 1.0), write("y", 1.0))),
        ])
        protocol = PCPDA()
        table = LockTable()
        waits = WaitForGraph()
        protocol.bind(ts, table)
        protocol.bind_runtime(waits)
        w = Job(ts["W"], 0, 0.0)
        r = Job(ts["R"], 0, 0.0)
        # W write-locks x, has read y, and waits on R (synthetic state).
        table.grant(w, "x", LockMode.WRITE)
        w.data_read.add("y")
        waits.block(w, [r])
        # R requests read x; DataRead(W) ∩ WriteSet(R) = {y}: denied by
        # the Table-1 condition even though W waits on R.
        decision = protocol.decide(r, "x", LockMode.READ)
        assert isinstance(decision, Deny)
        assert "Table 1" in decision.reason

    def test_lc1_does_not_exempt_waiting_readers(self):
        """A write lock over a waiting reader's read lock must stay
        denied: the waiting reader's read would otherwise be overwritten
        by an earlier-committing writer it precedes in SG(H)."""
        from repro.core.pcp_da import PCPDA
        from repro.engine.inheritance import WaitForGraph
        from repro.engine.job import Job
        from repro.engine.lock_table import LockTable
        from repro.engine.interfaces import Deny
        from repro.model.spec import LockMode, TaskSet

        ts = assign_by_order([
            TransactionSpec("H", (read("x", 1.0), read("y", 1.0))),
            TransactionSpec("L", (write("x", 1.0),)),
        ])
        protocol = PCPDA()
        table = LockTable()
        waits = WaitForGraph()
        protocol.bind(ts, table)
        protocol.bind_runtime(waits)
        h = Job(ts["H"], 0, 0.0)
        l = Job(ts["L"], 0, 0.0)
        table.grant(h, "x", LockMode.READ)
        waits.block(h, [l])  # H waits on L (synthetic)
        decision = protocol.decide(l, "x", LockMode.WRITE)
        assert isinstance(decision, Deny)


class TestKernelAsksTheGraph:
    """The array kernel keeps no copy of the wait edges: the exemption is
    a query on the run's one ``WaitForGraph``."""

    @staticmethod
    def _bound(*specs):
        from repro.core.pcp_da import PCPDA
        from repro.engine.inheritance import WaitForGraph
        from repro.engine.job import Job
        from repro.engine.kernel import build_kernel
        from repro.engine.lock_table import LockTable

        ts = assign_by_order(list(specs))
        protocol = PCPDA()
        table = LockTable()
        waits = WaitForGraph()
        protocol.bind(ts, table)
        protocol.bind_runtime(waits)
        kernel = build_kernel(protocol, table, waits)
        jobs = {spec.name: Job(spec, 0, 0.0) for spec in ts}
        return protocol, table, waits, kernel, jobs

    def test_exemption_follows_edge_edits_without_hooks(self):
        from repro.engine.interfaces import Deny, Grant
        from repro.model.spec import LockMode

        protocol, table, waits, kernel, jobs = self._bound(
            TransactionSpec("W", (write("x", 1.0), write("y", 1.0))),
            TransactionSpec("M", (read("x", 1.0), read("z", 1.0))),
            TransactionSpec("R", (read("y", 1.0), read("x", 1.0))),
        )
        m, r, w = jobs["M"], jobs["R"], jobs["W"]
        table.grant(m, "x", LockMode.READ)   # raises the ceiling to P(W)
        for decide in (protocol.decide, kernel.decide):
            assert isinstance(decide(r, "y", LockMode.READ), Deny)
        # M transitively waits on R (via W): its read lock stops counting.
        waits.block(m, [w])
        waits.block(w, [r])
        for decide in (protocol.decide, kernel.decide):
            assert isinstance(decide(r, "y", LockMode.READ), Grant)
        waits.unblock(w)
        for decide in (protocol.decide, kernel.decide):
            assert isinstance(decide(r, "y", LockMode.READ), Deny)
        kernel.self_check()

    def test_retire_asks_the_lock_table(self):
        from repro.model.spec import LockMode

        _, table, _, kernel, jobs = self._bound(
            TransactionSpec("A", (read("x", 1.0),)),
            TransactionSpec("B", (write("x", 1.0),)),
        )
        a = jobs["A"]
        table.grant(a, "x", LockMode.READ)
        slot = kernel.interner.job_ids[a]
        kernel.retire(a)                      # misuse: still holds x
        assert kernel.interner.job_ids[a] == slot
        table.release_all(a)
        kernel.retire(a)
        assert a not in kernel.interner.job_ids
        kernel.self_check()

    def test_self_check_covers_the_wait_state_the_kernel_reads(self):
        import pytest

        _, _, waits, kernel, jobs = self._bound(
            TransactionSpec("A", (read("x", 1.0),)),
            TransactionSpec("B", (write("x", 1.0),)),
        )
        waits.block(jobs["A"], [jobs["B"]])
        kernel.self_check()
        waits._waiters_of.clear()             # corrupt the reverse adjacency
        with pytest.raises(AssertionError, match="reverse adjacency"):
            kernel.self_check()
