"""Per-event microbenchmarks of the engine's incremental hot paths.

Where ``bench_simulator_throughput`` times whole simulations, these time
the individual operations the incremental fast path optimised — calendar
push/pop with rank-at-push, lock grant/release driving the kernel's
ceiling index, ``Sysceil`` queries answered from it, the object path's
from-scratch ceiling walk at 8 / 128 / 512 read locks, dispatch-heavy
simulation, the wait-for graph's three queries at 8 / 128 / 512 parked
waiters, and one wire round trip through the real server and client
connection ends — so a regression can be attributed to the specific
structure that caused it.

Run via ``make bench`` (or directly:
``PYTHONPATH=src:. pytest benchmarks/bench_event_microbench.py --benchmark-only``).
"""

import asyncio
import socket

import pytest

from repro.engine.event_queue import EventQueue
from repro.engine.inheritance import WaitForGraph
from repro.engine.job import Job
from repro.engine.kernel import build_kernel
from repro.engine.lock_table import LockTable
from repro.engine.simulator import SimConfig, Simulator
from repro.model.priorities import assign_by_order
from repro.model.spec import LockMode, TransactionSpec, read, write
from repro.protocols import make_protocol
from repro.service import LockManager, LockServer
from repro.service.connection import Connection
from repro.verify.stress import StressSpec, make_catalog
from repro.workloads.generator import WorkloadConfig, generate_taskset

_N_EVENTS = 2_000


def test_event_queue_push_pop_cycle(benchmark):
    """Rank-at-push calendar churn: the floor under every other number."""

    def churn():
        q = EventQueue()
        for i in range(_N_EVENTS):
            q.push(float(i % 97), ("op_done", "arrival", "deadline")[i % 3], i)
        total = 0
        while q:
            total += q.pop().payload
        return total

    assert benchmark(churn) == sum(range(_N_EVENTS))


def _locking_fixture_taskset():
    specs = [
        TransactionSpec("T1", (read("a"), write("b"))),
        TransactionSpec("T2", (write("a"), read("c"))),
        TransactionSpec("T3", (read("b"), write("c"), read("d"))),
        TransactionSpec("T4", (read("a"), read("d"))),
    ]
    return assign_by_order(specs)


def _locking_fixture():
    """A kernel-attached lock table: the kernel is the table's one
    grant/release listener and owns the only ceiling index."""
    taskset = _locking_fixture_taskset()
    jobs = tuple(Job(spec, 0, 0.0) for spec in taskset)
    protocol = make_protocol("rw-pcp")
    table = LockTable()
    protocol.bind(taskset, table)
    return table, jobs, protocol, build_kernel(protocol, table)


def test_grant_release_with_ceiling_index(benchmark):
    """Lock-table mutation cost including the kernel's lock words and
    incremental ceiling-index maintenance."""
    table, jobs, _, kernel = _locking_fixture()
    pairs = [
        (jobs[0], "a", LockMode.READ),
        (jobs[1], "c", LockMode.READ),
        (jobs[2], "b", LockMode.READ),
        (jobs[2], "c", LockMode.WRITE),
        (jobs[3], "d", LockMode.READ),
    ]

    def cycle():
        for job, item, mode in pairs:
            table.grant(job, item, mode)
        for job, item, mode in reversed(pairs):
            table.release(job, item, mode)

    benchmark(cycle)
    assert not table.all_entries()
    kernel.self_check()


def test_sysceil_query_from_index(benchmark):
    """The ``Sysceil`` query a ceiling protocol issues per lock request,
    answered by ``Kernel.system_ceiling`` from the index."""
    table, jobs, protocol, kernel = _locking_fixture()
    table.grant(jobs[0], "a", LockMode.READ)
    table.grant(jobs[2], "b", LockMode.READ)
    table.grant(jobs[2], "c", LockMode.WRITE)

    # Excluding the holder of the two highest ceilings makes the scan
    # skip them and go on to the third.
    level = benchmark(kernel.system_ceiling, jobs[2])
    assert level == protocol.system_ceiling(jobs[2]) == 3


@pytest.mark.parametrize("read_locks", (8, 128, 512))
def test_sysceil_reference_walk(benchmark, read_locks):
    """One PCP-DA read decision on the object path — a single from-scratch
    walk of the lock table for ``(Sysceil, T*)`` — with ``read_locks`` read
    locks held by live instances of the suite's ``wide`` catalog shape.
    This is what ``SimConfig(kernel=False)`` and the ``debug_invariants``
    reference pay per decision; the kernel's row is ``kernel.decide``."""
    catalog = make_catalog(StressSpec(
        seed=1, txn_types=32, items=512, min_ops=3, max_ops=6,
        write_probability=0.1, zipf_s=0.0,
    ))
    protocol = make_protocol("pcp-da")
    table = LockTable()
    protocol.bind(catalog, table)
    waits = WaitForGraph()
    protocol.bind_runtime(waits)
    granted = instance = 0
    while granted < read_locks:
        instance += 1
        for spec in catalog:
            holder = Job(spec, instance, 0.0)
            for item in sorted(spec.read_set)[:read_locks - granted]:
                table.grant(holder, item, LockMode.READ)
                granted += 1
    requester = Job(next(iter(catalog)), 0, 0.0)
    item = min(requester.spec.read_set)

    decision = benchmark(protocol.decide, requester, item, LockMode.READ)
    kernel = build_kernel(protocol, table, waits)
    assert decision == kernel.decide(requester, item, LockMode.READ)


def test_dispatch_heavy_simulation(benchmark):
    """A contended workload where the ready heap and blocked set churn:
    per-event dispatch cost end to end."""
    taskset = generate_taskset(
        WorkloadConfig(
            n_transactions=8, n_items=6, write_probability=0.5,
            hot_access_probability=0.85, target_utilization=0.75, seed=11,
        )
    )
    config = SimConfig(deadlock_action="abort_lowest")

    def run():
        sim = Simulator(taskset, make_protocol("pcp-da"), config)
        sim.run()
        return sim

    sim = benchmark(run)
    assert sim.events_processed > 0


def test_priority_recompute_under_inheritance(benchmark):
    """Blocking chains force priority recomputation over the active set."""
    taskset = generate_taskset(
        WorkloadConfig(
            n_transactions=10, n_items=4, write_probability=0.6,
            hot_access_probability=0.9, target_utilization=0.8, seed=3,
        )
    )
    config = SimConfig(deadlock_action="abort_lowest")

    def run():
        sim = Simulator(taskset, make_protocol("pip-2pl"), config)
        sim.run()
        return sim

    sim = benchmark(run)
    assert sim.events_processed > 0


# ----------------------------------------------------------------------
# Wait-for graph: per-call cost must be flat in the number of parked
# waiters (the service keeps hundreds of sessions live; docs/PERFORMANCE.md
# "Live sessions" has the measured rows).
# ----------------------------------------------------------------------
_PARKED = (8, 128, 512)


def _parked_graph(parked):
    """``parked`` waiters, each blocked on its own lock holder — the
    ``wide`` shape, where blame is spread — plus two jobs nobody waits on.
    Returns ``(graph, live, waiters, holders, spare_a, spare_b)`` with
    priorities settled and the cycle check clean."""
    spec = TransactionSpec("T", (read("x"),), priority=1)
    waiters = [Job(spec, i, 0.0) for i in range(parked)]
    holders = [Job(spec, parked + i, 0.0) for i in range(parked)]
    spare_a, spare_b = Job(spec, -1, 0.0), Job(spec, -2, 0.0)
    for rank, job in enumerate(waiters):
        job.base_priority = job.running_priority = 2 + rank
    graph = WaitForGraph()
    for waiter, holder in zip(waiters, holders):
        graph.block(waiter, (holder,))
    live = dict.fromkeys([*waiters, *holders, spare_a, spare_b])
    graph.recompute_priorities(live)
    assert graph.find_new_cycle() is None
    return graph, live, waiters, holders, spare_a, spare_b


@pytest.mark.parametrize("parked", _PARKED)
def test_wait_graph_exemption_of_unwaited_job(benchmark, parked):
    """The PCP-DA waiter exemption for a requester nobody waits on — the
    query behind almost every read decision."""
    graph, _, _, _, spare, _ = _parked_graph(parked)
    assert not benchmark(graph.transitive_waiters_on, spare)


@pytest.mark.parametrize("parked", _PARKED)
def test_wait_graph_forget_blocker_with_one_waiter(benchmark, parked):
    """A commit: forget a lock holder one request waits on (the round
    re-parks that waiter first, so every call forgets a live edge)."""
    graph, _, waiters, holders, _, _ = _parked_graph(parked)
    waiter, holder = waiters[0], holders[0]

    def commit():
        graph.block(waiter, (holder,))
        graph.forget(holder)

    benchmark(commit)
    assert not graph.is_blocked(waiter)
    assert len(graph.waiters()) == parked - 1


@pytest.mark.parametrize("parked", _PARKED)
def test_wait_graph_inheritance_pass_after_one_edge_edit(benchmark, parked):
    """Re-point one waiter, then bring priorities up to date."""
    graph, live, waiters, _, spare_a, spare_b = _parked_graph(parked)
    top = waiters[-1]
    targets = [spare_a, spare_b]

    def edit_and_pass():
        targets.reverse()
        graph.block(top, (targets[0],))
        return graph.recompute_priorities(live)

    changed = benchmark(edit_and_pass)
    assert targets[0].running_priority == top.base_priority
    assert targets[0] in changed


@pytest.mark.parametrize("parked", _PARKED)
def test_wait_graph_cycle_check_after_one_edge_edit(benchmark, parked):
    """Re-point one waiter, then check for a deadlock."""
    graph, _, waiters, _, spare_a, spare_b = _parked_graph(parked)
    targets = [spare_a, spare_b]

    def edit_and_check():
        targets.reverse()
        graph.block(waiters[0], (targets[0],))
        return graph.find_new_cycle()

    assert benchmark(edit_and_check) is None


# ----------------------------------------------------------------------
# Wire round trip: the transport's own row.  ``ping`` does no lock work,
# so this is framing + codec + dispatch + the event loop and nothing
# else — what every request over a socket pays before a lock is looked
# at (docs/PERFORMANCE.md "Process scaling").
# ----------------------------------------------------------------------
_PINGS = 400


class _CountingLoop(asyncio.SelectorEventLoop):
    """Counts loop iterations: "ticks per round trip" as a number."""

    iterations = 0

    def _run_once(self):
        self.iterations += 1
        super()._run_once()


@pytest.mark.parametrize("in_flight", (1, 8))
def test_wire_roundtrip_ping(benchmark, in_flight):
    """``ping`` over a ``socketpair`` through the real server end and
    client end on one loop, ``in_flight`` requests pipelined at a time.
    The row is per call of ``_PINGS`` requests; µs and loop iterations
    *per request* are printed and stored as ``extra_info``."""
    loop = _CountingLoop()
    server = LockServer(LockManager(_locking_fixture_taskset(), "pcp-da"))
    client = Connection()
    near, far = socket.socketpair()

    async def connect():
        await loop.create_connection(server.new_connection, sock=far)
        await loop.create_connection(lambda: client, sock=near)

    async def pings():
        for first in range(0, _PINGS, in_flight):
            batch = [
                client.request({"id": first + n, "op": "ping"})
                for n in range(in_flight)
            ]
            for response in batch:
                await response

    loop.run_until_complete(connect())
    try:
        benchmark(lambda: loop.run_until_complete(pings()))
        before = loop.iterations
        loop.run_until_complete(pings())
        ticks = (loop.iterations - before) / _PINGS
    finally:
        loop.run_until_complete(client.close())
        loop.run_until_complete(server.close())
        loop.close()
    us = benchmark.stats.stats.min * 1e6 / _PINGS
    benchmark.extra_info.update(us_per_request=us, ticks_per_request=ticks)
    print(f"\nwire round trip, {in_flight} in flight: {us:.1f} us and "
          f"{ticks:.2f} loop iterations per request")
    # One loop serves both ends here: flush, server chunk, client chunk,
    # task wake-up — per batch, however many requests it carries.
    assert ticks <= 4.5 / in_flight
