"""``sim-grid``: the discrete-event simulator over the ``perf_report`` grid.

The grid is the one ``benchmarks/perf_report.py`` times — two seeded task
sets under eight protocols, horizon four hyperperiods — restated here
because the benchmark may not import files outside its own directory.
A repetition is ``passes`` sweeps over the 16 cells.  The simulator is
deterministic, so the task sets are the whole input; ``--seed`` only
shuffles the order in which cells are submitted.
"""

from __future__ import annotations

import random
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.event_queue import EventQueue
from repro.engine.simulator import SimConfig, Simulator
from repro.experiments.runner import run_all
from repro.protocols import make_protocol
from repro.verify.invariants import assert_serializable
from repro.workloads.generator import WorkloadConfig, generate_taskset

from driver import Rep, layer_scalars, pooled, quiet
from tracer import Tracer
from workloads import Workload

PROTOCOLS = ("pcp-da", "rw-pcp", "ccp", "pcp", "ipcp", "pip-2pl", "2pl",
             "occ-bc")
HORIZON_FACTOR = 4
LEDGER_RUNS = 5
QUEUE_EVENTS = 20_000

_GRID = (
    dict(n_transactions=8, n_items=10, write_probability=0.4,
         hot_access_probability=0.7, target_utilization=0.65, seed=7),
    dict(n_transactions=12, n_items=14, write_probability=0.3,
         hot_access_probability=0.6, target_utilization=0.7, seed=21),
)


def _config(taskset, **overrides) -> SimConfig:
    hyperperiod = taskset.hyperperiod()
    return SimConfig(
        deadlock_action="abort_lowest",
        horizon=None if hyperperiod is None else hyperperiod * HORIZON_FACTOR,
        **overrides,
    )


def sim_rep(workload: Workload, seed: int, rep: int, *,
            transactions: Optional[int] = None,
            tracer: Optional[Tracer] = None) -> Rep:
    """One repetition: ``transactions`` passes over the shuffled grid."""
    out = Rep(traced=tracer is not None)
    passes = transactions or workload.transactions
    tasksets = [generate_taskset(WorkloadConfig(**params)) for params in _GRID]
    cells = [(protocol, index) for protocol in PROTOCOLS
             for index in range(len(tasksets))] * passes
    random.Random(f"{seed}:{rep}").shuffle(cells)

    started = time.perf_counter()
    simulators = [
        Simulator(tasksets[index], make_protocol(protocol),
                  _config(tasksets[index]))
        for protocol, index in cells
    ]
    out.samples["setup_s"] = [(time.perf_counter() - started) / passes]

    counts: Dict[Tuple[str, int], Tuple[int, int]] = {}
    first_span = len(tracer.spans) if tracer else 0
    wall = 0.0
    for cell, simulator in zip(cells, simulators):
        cpu_began, began = time.process_time(), time.perf_counter()
        result = simulator.run()
        cell_wall = time.perf_counter() - began
        cell_cpu = time.process_time() - cpu_began
        wall += cell_wall
        out.samples.setdefault("wall:%s:%d" % cell, []).append(cell_wall)
        out.samples.setdefault("cpu:%s:%d" % cell, []).append(cell_cpu)
        count = (simulator.events_processed, len(result.committed_jobs))
        if counts.setdefault(cell, count) != count:
            out.problems.append(f"{cell}: {count} after {counts[cell]}")
        out.attempted += len(result.jobs)
        if rep == 0:
            try:
                assert_serializable(result)
            except Exception as exc:  # noqa: BLE001 - reported, run fails
                out.problems.append(f"{cell}: {exc}")

    # (protocol, task set, events, commits) per cell: must repeat exactly.
    out.fingerprint = tuple(sorted(
        (*cell, *count) for cell, count in counts.items()
    ))
    committed = sum(count[1] for count in counts.values()) * passes
    out.scalars.update({
        "driver.wall_s": wall,
        "driver.txn_per_s_mean": committed / wall,
    })
    if tracer is not None:
        out.scalars.update(layer_scalars(
            tracer.spans[first_span:], wall, committed
        ))
    return out


def timing_rows(reps: Sequence[Rep]) -> Dict[str, Dict[str, Any]]:
    """The timing metrics of ``sim-grid`` (see :func:`driver.quiet`).

    A cell (one task set under one protocol, ~15 ms) is the slice.  Cells
    differ in cost, so each of the 16 kinds gets its own quiet quartile
    over its runs, and a quiet *pass* is their sum.
    """
    walls: Dict[str, Dict[str, float]] = {}
    cpu_s = events = commits = 0
    for protocol, index, cell_events, cell_commits in reps[0].fingerprint:
        row = quiet(pooled(reps, f"wall:{protocol}:{index}"), "lower")
        for scope in ("", f".{protocol}"):
            total = walls.setdefault(scope, dict.fromkeys(
                ("q1", "median", "q3", "events"), 0.0
            ))
            for field in ("q1", "median", "q3"):
                total[field] += row[field]
            total["events"] += cell_events
        cpu_s += quiet(
            pooled(reps, f"cpu:{protocol}:{index}"), "lower"
        )["value"]
        commits += cell_commits

    def rate(amount: float, total: Dict[str, float]) -> Dict[str, Any]:
        return {"value": amount / total["q1"], "q3": amount / total["q1"],
                "median": amount / total["median"],
                "q1": amount / total["q3"], "n": row["n"]}

    return {
        "txn_per_s": rate(commits, walls[""]),
        "cpu_ms_per_txn": {"value": cpu_s * 1e3 / commits, "n": row["n"]},
        "setup_s": quiet(pooled(reps, "setup_s"), "lower"),
        **{f"simulator{scope}.events_per_s": rate(total["events"], total)
           for scope, total in walls.items()},
    }


def sim_layer_extras() -> Dict[str, float]:
    """Layer rows measured on their own, once per traced run.

    They move no end-to-end metric today; they are recorded so the
    kernel-off path, the event calendar and the sweep machinery have a
    row before anyone touches them.
    """
    tasksets = [generate_taskset(WorkloadConfig(**params)) for params in _GRID]
    events, wall = 0, 0.0
    for taskset in tasksets:
        simulator = Simulator(taskset, make_protocol("pcp-da"),
                              _config(taskset, kernel=False))
        began = time.perf_counter()
        simulator.run()
        wall += time.perf_counter() - began
        events += simulator.events_processed

    queue = EventQueue()
    rng = random.Random(0)
    times = [rng.random() * 1e3 for _ in range(QUEUE_EVENTS)]
    began = time.perf_counter()
    for at in times:
        queue.push(at, "arrival", None)
    while queue:
        queue.pop()
    queue_s = time.perf_counter() - began

    ledger: List[float] = []
    for _ in range(LEDGER_RUNS):
        began = time.perf_counter()
        reports = run_all(extended=True, jobs=1)
        ledger.append(time.perf_counter() - began)
        if not all(report.passed for report in reports):
            raise AssertionError("reproduction ledger has a failing check")
    return {
        "simulator.kernel_off.events_per_s": events / wall,
        "event_queue.push_pop.ns_per_event": queue_s * 1e9 / QUEUE_EVENTS,
        "experiments.ledger_cold_s": sorted(ledger)[LEDGER_RUNS // 2],
    }
