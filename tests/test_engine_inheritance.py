"""Unit tests for priority inheritance and the wait-for graph."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.inheritance import WaitForGraph
from repro.engine.job import Job
from repro.model.spec import TransactionSpec, read


def _job(name, priority):
    spec = TransactionSpec(name, (read("x"),), priority=priority)
    return Job(spec, 0, 0.0)


class TestInheritance:
    def test_direct_inheritance(self):
        high, low = _job("H", 3), _job("L", 1)
        g = WaitForGraph()
        g.block(high, [low])
        g.recompute_priorities([high, low])
        assert low.running_priority == 3
        assert high.running_priority == 3

    def test_transitive_inheritance(self):
        a, b, c = _job("A", 5), _job("B", 3), _job("C", 1)
        g = WaitForGraph()
        g.block(a, [b])
        g.block(b, [c])
        g.recompute_priorities([a, b, c])
        assert c.running_priority == 5
        assert b.running_priority == 5

    def test_inheritance_reverts_on_unblock(self):
        high, low = _job("H", 3), _job("L", 1)
        g = WaitForGraph()
        g.block(high, [low])
        g.recompute_priorities([high, low])
        g.unblock(high)
        g.recompute_priorities([high, low])
        assert low.running_priority == 1

    def test_max_of_multiple_waiters(self):
        h1, h2, low = _job("H1", 5), _job("H2", 4), _job("L", 1)
        g = WaitForGraph()
        g.block(h1, [low])
        g.block(h2, [low])
        g.recompute_priorities([h1, h2, low])
        assert low.running_priority == 5

    def test_no_inherit_edges_do_not_boost(self):
        high, low = _job("H", 3), _job("L", 1)
        g = WaitForGraph()
        g.block(high, [low], inherit=False)
        g.recompute_priorities([high, low])
        assert low.running_priority == 1
        # ...but still participate in cycle detection.
        g.block(low, [high], inherit=False)
        assert g.find_cycle() is not None

    def test_forget_removes_as_blocker_and_waiter(self):
        a, b, c = _job("A", 3), _job("B", 2), _job("C", 1)
        g = WaitForGraph()
        g.block(a, [b, c])
        g.block(b, [c])
        g.forget(c)
        assert g.blockers_of(a) == (b,)
        assert not g.is_blocked(b)

    def test_waiters_on(self):
        a, b = _job("A", 2), _job("B", 1)
        g = WaitForGraph()
        g.block(a, [b])
        assert g.waiters_on(b) == (a,)
        assert g.waiters_on(a) == ()

    def test_block_reports_whether_edges_changed(self):
        a, b, c = _job("A", 3), _job("B", 2), _job("C", 1)
        g = WaitForGraph()
        assert g.block(a, [b]) is True
        assert g.block(a, [b]) is False           # same edges: free
        assert g.block(a, [b], inherit=False) is True
        assert g.block(a, [b, c], inherit=False) is True
        g.forget(c)                               # prunes a's edge to c
        assert g.block(a, [b], inherit=False) is False

    def test_pass_reports_changed_live_jobs_and_skips_when_settled(self):
        high, low, idle = _job("H", 3), _job("L", 1), _job("I", 2)
        live = {high: None, low: None, idle: None}
        g = WaitForGraph()
        g.block(high, [low])
        assert g.recompute_priorities(live) == [low]
        assert g.recompute_priorities(live) == []  # no edge moved
        g.forget(low)                              # commit: still live here
        assert g.recompute_priorities(live) == [low]
        assert low.running_priority == 1

    def test_finished_job_keeps_its_last_priority(self):
        high, low = _job("H", 3), _job("L", 1)
        live = {high: None, low: None}
        g = WaitForGraph()
        g.block(high, [low])
        g.recompute_priorities(live)
        g.forget(low)
        del live[low]                              # service: gone before the pass
        assert g.recompute_priorities(live) == []
        assert low.running_priority == 3


class TestCycleDetection:
    def test_no_cycle(self):
        a, b, c = _job("A", 3), _job("B", 2), _job("C", 1)
        g = WaitForGraph()
        g.block(a, [b])
        g.block(b, [c])
        assert g.find_cycle() is None

    def test_two_cycle(self):
        a, b = _job("A", 2), _job("B", 1)
        g = WaitForGraph()
        g.block(a, [b])
        g.block(b, [a])
        cycle = g.find_cycle()
        assert cycle is not None
        assert {j.name for j in cycle} == {"A#0", "B#0"}

    def test_three_cycle_with_branch(self):
        a, b, c, d = _job("A", 4), _job("B", 3), _job("C", 2), _job("D", 1)
        g = WaitForGraph()
        g.block(a, [b])
        g.block(b, [c, d])
        g.block(d, [b])
        cycle = g.find_cycle()
        assert cycle is not None
        assert {j.name for j in cycle} == {"B#0", "D#0"}

    def test_cycle_removed_after_forget(self):
        a, b = _job("A", 2), _job("B", 1)
        g = WaitForGraph()
        g.block(a, [b])
        g.block(b, [a])
        g.forget(b)
        assert g.find_cycle() is None

    def test_new_cycle_check_is_edge_local(self):
        a, b, c = _job("A", 3), _job("B", 2), _job("C", 1)
        g = WaitForGraph()
        g.block(a, [b])
        assert g.find_new_cycle() is None
        g.block(c, [b])            # only c's edges are searched now
        assert g._unchecked == {c}
        assert g.find_new_cycle() is None
        g.block(b, [a])
        assert g.find_cycle() is not None
        assert g.find_new_cycle() == g.find_cycle()
        # An unresolved cycle is reported again, exactly like find_cycle().
        assert g.find_new_cycle() == g.find_cycle()
        g.unblock(b)
        assert g.find_new_cycle() is None


# ----------------------------------------------------------------------
# Edit-sequence battery: incremental state vs from-scratch references
# ----------------------------------------------------------------------
# The references below are the full-scan closure and the reset-everything
# fixpoint the graph used before it became incremental.

def _scan_waiters_on(graph, blocker):
    return {w for w, bs in graph._blocked_on.items() if blocker in bs}


def _scan_transitive_waiters_on(graph, blocker):
    out = set()
    frontier = [blocker]
    while frontier:
        current = frontier.pop()
        for waiter, blockers in graph._blocked_on.items():
            if current in blockers and waiter not in out:
                out.add(waiter)
                frontier.append(waiter)
    return out


def _fixpoint_priorities(graph, live, floor):
    running = {
        job: max(job.base_priority, floor(job) if floor else 0)
        for job in live
    }
    changed = True
    while changed:
        changed = False
        for waiter, blockers in graph._blocked_on.items():
            if waiter in graph._no_inherit:
                continue
            for blocker in blockers:
                if running[blocker] < running[waiter]:
                    running[blocker] = running[waiter]
                    changed = True
    return running


_POOL = 7
_edits = st.lists(
    st.tuples(
        st.sampled_from(["block", "block", "block", "unblock", "forget",
                         "retire"]),
        st.integers(0, _POOL - 1),                      # the job edited
        st.sets(st.integers(0, _POOL - 1), min_size=1, max_size=3),
        st.booleans(),                                  # inherit?
        st.booleans(),                                  # run the pass?
        st.booleans(),                                  # run the cycle check?
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(edits=_edits, floors=st.none() | st.lists(
    st.integers(0, _POOL), min_size=_POOL, max_size=_POOL))
def test_incremental_graph_matches_from_scratch_references(edits, floors):
    jobs = [_job(f"J{i}", i + 1) for i in range(_POOL)]
    floor = None if floors is None else (
        lambda job: floors[jobs.index(job)]
    )
    live = dict.fromkeys(jobs)
    g = WaitForGraph()
    for kind, index, others, inherit, run_pass, run_check in edits:
        job = jobs[index]
        if job not in live:
            continue
        if kind == "block":
            blockers = [jobs[i] for i in sorted(others)
                        if i != index and jobs[i] in live]
            if not blockers:
                continue
            before = (g.blockers_of(job), job in g._no_inherit)
            moved = g.block(job, blockers, inherit=inherit)
            assert moved == (before != (tuple(blockers), not inherit))
        elif kind == "unblock":
            g.unblock(job)
        else:
            g.forget(job)
            if kind == "retire":
                del live[job]

        g.self_check()
        for probe in jobs:
            assert set(g.waiters_on(probe)) == _scan_waiters_on(g, probe)
            assert (set(g.transitive_waiters_on(probe))
                    == _scan_transitive_waiters_on(g, probe))

        if run_pass:
            before = {j: j.running_priority for j in live}
            changed = g.recompute_priorities(live, floor)
            expected = _fixpoint_priorities(g, live, floor)
            assert {j: j.running_priority for j in live} == expected
            assert set(changed) == {
                j for j in live if before[j] != expected[j]
            }
            assert len(changed) == len(set(changed))
            for j in live:
                assert j.dkey == (-j.running_priority, j.arrival, j.seq)

        if run_check:
            assert g.find_new_cycle() == g.find_cycle()
