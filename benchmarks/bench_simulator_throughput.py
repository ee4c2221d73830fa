"""Engine throughput — how fast the substrate simulates.

Not a paper artifact, but the harness everything else stands on: these
benchmarks time full simulations (hyperperiod, priority inheritance,
ceiling checks, serializability audit) so regressions in the engine's hot
paths are visible.
"""

from benchmarks.conftest import banner, simulate
from repro.db.serializability import check_serializable
from repro.engine.simulator import SimConfig, Simulator
from repro.protocols import make_protocol
from repro.workloads.generator import WorkloadConfig, generate_taskset

_TASKSET = generate_taskset(
    WorkloadConfig(
        n_transactions=8, n_items=10, write_probability=0.4,
        hot_access_probability=0.7, target_utilization=0.65, seed=7,
    )
)


def test_throughput_pcp_da_hyperperiod(benchmark):
    result = benchmark(
        lambda: Simulator(_TASKSET, make_protocol("pcp-da"), SimConfig()).run()
    )
    assert result.committed_jobs


def test_throughput_rw_pcp_hyperperiod(benchmark):
    result = benchmark(
        lambda: Simulator(_TASKSET, make_protocol("rw-pcp"), SimConfig()).run()
    )
    assert result.committed_jobs


def test_throughput_serializability_check(benchmark):
    result = Simulator(_TASKSET, make_protocol("pcp-da"), SimConfig()).run()
    graph = benchmark(lambda: check_serializable(result.history))
    assert graph.is_acyclic()


def test_throughput_long_horizon(benchmark):
    """A 10x-hyperperiod run: event-queue and dispatcher scaling."""
    config = SimConfig(horizon=4800.0)
    result = benchmark.pedantic(
        lambda: Simulator(_TASKSET, make_protocol("pcp-da"), config).run(),
        rounds=3, iterations=1,
    )
    assert len(result.jobs) > 50


def test_ledger_serial_vs_parallel(benchmark):
    """Serial vs ``jobs=4`` ledger: identical bytes, measured speedup.

    The base ledger is too short to pay for starting workers, so jobs=4
    is usually *slower*; the point of the table is that content never
    changes, only wall time
    (see docs/PERFORMANCE.md).  Prints the comparison (run with ``-s``).
    """
    import os
    import time

    from repro.experiments import render_summary, run_all

    t0 = time.perf_counter()
    serial_summary = render_summary(run_all())
    serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel_summary = render_summary(run_all(jobs=4))
    parallel = time.perf_counter() - t0
    benchmark.pedantic(lambda: run_all(jobs=4), rounds=3, iterations=1)

    assert parallel_summary == serial_summary  # byte-identical
    print(banner("Full ledger: serial vs parallel (jobs=4)"))
    print(f"host cores: {os.cpu_count()}")
    print(f"{'mode':<12}{'wall (s)':>12}{'speedup':>10}")
    print(f"{'serial':<12}{serial:>12.4f}{'1.0x':>10}")
    print(f"{'jobs=4':<12}{parallel:>12.4f}{serial / parallel:>9.2f}x")
