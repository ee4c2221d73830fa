"""Property test: the kernel's incremental ceiling index equals the
protocol's from-scratch walk after *every* grant and release of a random
lock schedule.

:class:`~repro.engine.lock_table.CeilingIndex` is the "bump on grant,
lazy-max-repair on release" structure behind the array kernel's
``Sysceil`` queries — the only incremental ceiling structure there is.
Its maintenance contract is easy to get subtly wrong (stale heap entries,
exclusion sets, items whose ceiling is the dummy level), so this test
drives a kernel-attached :class:`LockTable` through arbitrary
grant/release toggles and, at each step, compares
``Kernel.system_ceiling(exclude)`` and the scan's holder set with the
reference the object path decides from — for each of the three level
sources a protocol can compile to (PCP-DA read ceilings, RW-PCP runtime
r/w ceilings, original-PCP access ceilings) and under several exclusions.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.locking_conditions import sysceil_and_tstar
from repro.engine.job import Job
from repro.engine.kernel import build_kernel
from repro.engine.kernel.tables import LEVEL_ACEIL, LEVEL_READ_WCEIL, LEVEL_RW
from repro.engine.lock_table import LockTable
from repro.engine.simulator import SimConfig, Simulator
from repro.exceptions import SimulationError
from repro.model.priorities import assign_by_order
from repro.model.spec import DUMMY_PRIORITY, LockMode, read, write
from repro.model.spec import TransactionSpec
from repro.protocols import make_protocol

_ITEMS = ("a", "b", "c", "d")

#: One protocol per level source, with the source its table must carry.
_KINDS = {
    "pcpda-read": ("pcp-da", LEVEL_READ_WCEIL),
    "rwceil": ("rw-pcp", LEVEL_RW),
    "aceil": ("pcp", LEVEL_ACEIL),
}


def _taskset():
    """Four transactions with overlapping read/write sets."""
    return assign_by_order([
        TransactionSpec("T1", (read("a"), write("b"))),
        TransactionSpec("T2", (write("a"), read("c"))),
        TransactionSpec("T3", (read("b"), write("c"), read("d"))),
        TransactionSpec("T4", (read("a"), read("d"))),  # d is never written
    ])


def _fixture(kind, table=None):
    """A bound protocol of ``kind``, its kernel on ``table``, four jobs."""
    name, level_source = _KINDS[kind]
    taskset = _taskset()
    protocol = make_protocol(name)
    table = LockTable() if table is None else table
    protocol.bind(taskset, table)
    kernel = build_kernel(protocol, table)
    assert kernel.table_spec.level_source == level_source
    jobs = tuple(Job(spec, 0, 0.0) for spec in taskset)
    return protocol, kernel, table, jobs


def _reference(protocol, excluded):
    """``(Sysceil, holders)`` by the protocol's from-scratch walk."""
    if protocol.name == "pcp-da":
        return sysceil_and_tstar(protocol.table, protocol.ceilings, excluded)
    (exclude,) = excluded or (None,)
    return protocol._sysceil_and_holders(exclude)


def _kernel_scan(kernel, excluded):
    """``(Sysceil, holders)`` from the kernel's index scan."""
    word = 0
    for job in excluded:
        word |= 1 << kernel.interner.intern_job(job)
    level, holders = kernel._scan(word)
    jobs = kernel.interner.jobs_from_word(holders)
    return level, tuple(sorted(jobs, key=lambda j: j.seq))


@st.composite
def lock_schedules(draw):
    """A sequence of (job index, item, mode) toggles: grant when the lock
    is not held, release when it is."""
    n = draw(st.integers(min_value=1, max_value=30))
    return [
        (
            draw(st.integers(min_value=0, max_value=3)),
            draw(st.sampled_from(_ITEMS)),
            draw(st.sampled_from([LockMode.READ, LockMode.WRITE])),
        )
        for _ in range(n)
    ]


@pytest.mark.parametrize("kind", ["pcpda-read", "rwceil", "aceil"])
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(schedule=lock_schedules())
def test_incremental_ceiling_equals_rescan_after_every_step(kind, schedule):
    protocol, kernel, table, jobs = _fixture(kind)
    exclusions = [(), *((job,) for job in jobs)]
    if kind == "pcpda-read":
        # Only PCP-DA excludes more than the requester (its waiters).
        exclusions += [(jobs[1], jobs[2]), jobs]
    for job_idx, item, mode in schedule:
        job = jobs[job_idx]
        if table.holds(job, item, mode):
            table.release(job, item, mode)
        else:
            table.grant(job, item, mode)
        kernel.self_check()
        for excluded in exclusions:
            expected = _reference(protocol, excluded)
            assert _kernel_scan(kernel, excluded) == expected, (
                f"diverged after toggling {job.name}/{item}/{mode}"
            )
            if len(excluded) <= 1:
                exclude = excluded[0] if excluded else None
                assert kernel.system_ceiling(exclude) == expected[0]
                assert protocol.system_ceiling(exclude) == expected[0]
        # The scan must restore every live entry it consumed: a second
        # query right away has to see the same world.
        assert _kernel_scan(kernel, ()) == _reference(protocol, ())


def test_release_all_keeps_index_current():
    """``release_all`` (the commit path) goes through ``release`` and must
    leave the index consistent too."""
    protocol, kernel, table, jobs = _fixture("rwceil")
    table.grant(jobs[0], "a", LockMode.READ)
    table.grant(jobs[0], "b", LockMode.WRITE)
    table.grant(jobs[1], "a", LockMode.WRITE)
    kernel.self_check()
    table.release_all(jobs[0])
    kernel.self_check()
    assert _kernel_scan(kernel, ()) == (
        protocol.ceilings.aceil("a"), (jobs[1],)
    )
    table.release_all(jobs[1])
    kernel.self_check()
    assert _kernel_scan(kernel, ()) == (DUMMY_PRIORITY, ())
    assert kernel.system_ceiling() == DUMMY_PRIORITY


def test_attach_rebuilds_from_live_entries():
    """Attaching a kernel to a table that already has grants must pick
    them up (the simulator builds it at bind time, but the service and
    tests may not)."""
    table = LockTable()
    holder = Job(_taskset()["T3"], 0, 0.0)
    table.grant(holder, "c", LockMode.WRITE)
    protocol, kernel, table, _ = _fixture("aceil", table)
    kernel.self_check()
    assert kernel.system_ceiling() == protocol.ceilings.aceil("c")
    assert kernel.system_ceiling(holder) == DUMMY_PRIORITY


def test_corrupt_level_trips_the_from_scratch_cross_check():
    """Under ``debug_invariants`` every kernel answer is compared with the
    protocol's walk of the lock table — an independent computation, not
    the same heap again — so a wrong level in the index cannot pass."""
    taskset = _taskset()
    sim = Simulator(
        taskset, make_protocol("pcp-da"), SimConfig(debug_invariants=True)
    )
    reader = Job(taskset["T4"], 0, 0.0)
    requester = Job(taskset["T1"], 0, 0.0)  # P > Sysceil: LC2
    sim.table.grant(reader, "a", LockMode.READ)
    wceil = sim.protocol.ceilings.wceil("a")
    assert sim._sysceil(None) == wceil
    sim.kernel._ceilings.update(sim.kernel.interner.item_id("a"), wceil + 1)
    with pytest.raises(SimulationError, match="system ceiling diverged"):
        sim._sysceil(None)
    with pytest.raises(SimulationError, match="decision diverged"):
        sim._decide(requester, "a", LockMode.READ)  # kernel: P <= Sysceil
    with pytest.raises(AssertionError, match="ceiling index diverged"):
        sim.kernel.self_check()
