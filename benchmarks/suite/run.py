"""One repeatable benchmark for simulator, service, shards and shard processes.

Usage::

    python3 benchmarks/suite/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace [0|1]] [--smoke] [--list] [--out PATH]

Without ``--workload`` every workload of ``BENCHMARK.json`` runs, their
repetitions interleaved round-robin so a slow host window hits all of
them equally.  Every declared metric a workload produces is printed by
name with its unit, quartiles and sample count; the exit code is
non-zero if any repetition fails a correctness check.  With exactly one
``--workload`` the last line of standard output is the one-object JSON
result the benchmark contract asks for (README, "driver contract").

The script pins its own environment by re-executing itself once:
``PYTHONHASHSEED=0`` (string-hash randomisation moves dict layouts and
swings throughput by 20%), ``PYTHONPATH`` at this checkout's ``src``
(shard hosts are ``python -m repro`` children and inherit it), ``TMPDIR``
inside ``benchmarks/suite/out`` (the supervisor's catalog file is the
only thing the program writes) and, where the platform allows, one CPU
for this process and every child: on a 2-vCPU sandbox a socket
round trip between two vCPUs costs whatever the hypervisor's wake-up
latency is that minute (``tcp-wide-c2`` read 65 to 510 txn/s unpinned,
500 to 665 pinned), and that is not the program's cost.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import gc
import json
import os
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
PINNED = "REPRO_SUITE_PINNED"

MIN_REPETITIONS = 3
SMOKE_TRANSACTIONS = 100
#: A percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10

#: Metric -> (sample list, percentile, seconds-to-unit factor).
PERCENTILES: Dict[str, Tuple[str, int, float]] = {
    "driver.commit_p50_ms": ("commit", 50, 1e3),
    "driver.commit_p95_ms": ("commit", 95, 1e3),
    "driver.commit_p99_ms": ("commit", 99, 1e3),
    "driver.hi_commit_p95_ms": ("hi_commit", 95, 1e3),
    "driver.op_begin_p50_us": ("op_begin", 50, 1e6),
    "driver.op_read_p50_us": ("op_read", 50, 1e6),
    "driver.op_write_p50_us": ("op_write", 50, 1e6),
    "driver.op_commit_p50_us": ("op_commit", 50, 1e6),
    "server.ping_rtt_p50_us": ("server.ping_rtt", 50, 1e6),
    "proxy.ping_rtt_p50_us": ("proxy.ping_rtt", 50, 1e6),
}


def pin_environment() -> None:
    """Re-exec once under the pinned environment (see module docstring)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"{ROOT}: no src/repro here; run from a full checkout")
    if os.environ.get(PINNED) == "1":
        return
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(
        os.environ, PYTHONHASHSEED="0", TMPDIR=str(OUT / "tmp"),
        PYTHONPATH=os.pathsep.join(filter(None, path)), **{PINNED: "1"},
    )
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def percentile(samples: Sequence[float], p: int) -> Optional[float]:
    """Nearest-rank percentile of raw samples, or ``None`` when refused.

    Refused when fewer than :data:`SAMPLES_BEYOND` samples lie beyond
    the rank: a p95 of 100 samples rests on five of them.
    """
    ordered = sorted(samples)
    rank = -(-len(ordered) * p // 100)  # ceil(n * p / 100), 1-based
    if rank < 1 or len(ordered) - rank < SAMPLES_BEYOND:
        return None
    return ordered[rank - 1]


class WorkloadRun:
    """The repetitions of one workload in this run, and their summary."""

    def __init__(self, workload: Any, seed: int, seconds: float, trace: bool,
                 smoke: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.transactions = None
        if smoke:
            self.transactions = (
                1 if workload.deployment == "sim" else SMOKE_TRANSACTIONS
            )
        # Traced repetitions share the budget: the end-to-end numbers
        # still come from the untraced half.
        self.budget_s = 0.0 if smoke else (seconds / 2 if trace else seconds)
        self.minimum = 1 if smoke else MIN_REPETITIONS
        self.reps: List[Any] = []
        self.extras: Dict[str, float] = {}
        self.last_tracer: Any = None
        self.problems: List[str] = []

    # -- scheduling -----------------------------------------------------
    def _timed(self, traced: bool) -> Tuple[int, float]:
        mine = [r for r in self.reps if r.traced == traced]
        return len(mine), sum(r.scalars["driver.wall_s"] for r in mine)

    def next_is_traced(self) -> Optional[bool]:
        """Whether the next repetition is traced; ``None`` when done."""
        if self.problems:
            return None
        count, spent = self._timed(False)
        if count < self.minimum or spent < self.budget_s:
            return False
        if self.trace:
            count, spent = self._timed(True)
            if count < 1 or spent < self.budget_s:
                return True
        return None

    def run_one(self, traced: bool) -> None:
        from driver import service_rep
        from simgrid import sim_rep
        from tracer import Tracer

        workload, index = self.workload, len(self.reps)
        # Every repetition starts from a collected heap, so neither its
        # timing nor the process's peak RSS depends on how many came before.
        gc.collect()
        try:
            with (Tracer() if traced else contextlib.nullcontext()) as tracer:
                options = dict(transactions=self.transactions, tracer=tracer)
                if workload.deployment == "sim":
                    rep = sim_rep(workload, self.seed, index, **options)
                else:
                    rep = asyncio.run(asyncio.wait_for(
                        service_rep(workload, self.seed, index, **options),
                        4 * workload.expected_s,
                    ))
        except asyncio.TimeoutError:
            self.problems.append(
                f"repetition {index}: no result after "
                f"{4 * workload.expected_s:.0f}s (4x expected); killed"
            )
            return
        self.reps.append(rep)
        self.problems += [f"repetition {index}: {p}" for p in rep.problems]
        if rep.fingerprint != self.reps[0].fingerprint:
            self.problems.append(
                f"repetition {index}: event counts {rep.fingerprint} differ "
                f"from repetition 0's {self.reps[0].fingerprint}"
            )
        if traced:
            self.last_tracer = tracer

    def finish(self) -> None:
        """Run-level extras, and the trace file of the last traced rep."""
        if self.problems:
            return
        if self.trace and self.workload.deployment == "sim":
            from simgrid import sim_layer_extras
            self.extras = sim_layer_extras()
        if self.last_tracer is not None:
            self.last_tracer.write(
                OUT / f"trace-{self.workload.name}.json",
                {"workload": self.workload.name, "seed": self.seed},
            )

    # -- summary --------------------------------------------------------
    def metrics(self) -> Dict[str, Dict[str, Any]]:
        """Every metric this workload produced: value, quartiles, count.

        Timings (``timing_rows`` of the workload's kind) are quiet
        quartiles over slices of the untraced repetitions.  Any other
        scalar is the median over the untraced repetitions that have it,
        else over the traced ones (span-derived layer metrics exist only
        there).  A percentile pools the raw samples of the untraced
        repetitions; a refused one is listed with ``value: None``.
        """
        import driver
        import simgrid

        kind = simgrid if self.workload.deployment == "sim" else driver
        out: Dict[str, Dict[str, Any]] = {}
        untraced = [r for r in self.reps if not r.traced]
        traced = [r for r in self.reps if r.traced]
        names = {name for rep in self.reps for name in rep.scalars}
        for name in sorted(names):
            values = [r.scalars[name] for r in untraced if name in r.scalars]
            values = values or [r.scalars[name] for r in traced]
            row = driver.quiet(values, "lower")
            out[name] = dict(row, value=row["median"])
        for name, (key, p, factor) in PERCENTILES.items():
            samples = driver.pooled(untraced, key)
            if samples:
                value = percentile(samples, p)
                out[name] = {
                    "value": None if value is None else value * factor,
                    "n": len(samples),
                }
        out.update(kind.timing_rows(untraced))
        for name, value in self.extras.items():
            out[name] = {"value": value, "n": 1}
        out["peak_rss_mb"] = {"value": driver.peak_rss_mb(), "n": 1}
        if traced:
            slowed = kind.timing_rows(traced)["txn_per_s"]["value"]
            out["driver.trace_overhead_share"] = {
                "value": 1.0 - slowed / out["txn_per_s"]["value"],
                "n": len(traced),
            }
        return out

    def document(self, units: Dict[str, str]) -> Dict[str, Any]:
        untraced = [r for r in self.reps if not r.traced]
        metrics = {
            name: dict(row, unit=units[name])
            for name, row in self.metrics().items() if name in units
        } if untraced else {}
        return {
            "correct": not self.problems and bool(untraced),
            "problems": self.problems,
            "attempted": sum(r.attempted for r in untraced),
            "failed": sum(r.failed for r in untraced),
            "repetitions": len(untraced),
            "traced_repetitions": len(self.reps) - len(untraced),
            "metrics": metrics,
        }


def render(name: str, document: Dict[str, Any]) -> str:
    """The human-readable block of one workload."""
    lines = [
        f"{name}: {'OK' if document['correct'] else 'FAILED'} "
        f"attempted={document['attempted']} failed={document['failed']} "
        f"repetitions={document['repetitions']}"
        f"+{document['traced_repetitions']} traced"
    ]
    lines += [f"  !! {problem}" for problem in document["problems"]]
    for metric, row in document["metrics"].items():
        if row["value"] is None:
            text = f"refused (<{SAMPLES_BEYOND} samples beyond it)"
        else:
            text = f"{row['value']:.6g} {row['unit']}"
            if "q1" in row:
                text += (f"  [q1 {row['q1']:.6g}, median {row['median']:.6g},"
                         f" q3 {row['q3']:.6g}]")
        lines.append(f"  {metric:<46} {text}  (n={row['n']})")
    return "\n".join(lines)


def contract_line(spec: Dict[str, Any], document: Dict[str, Any],
                  trace: bool) -> str:
    """The driver contract's result object for a one-workload run.

    It carries every declared metric of the requested kind; a layer the
    workload does not cross, or a refused percentile, reads 0.
    """
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for entry in declared:
        row = document["metrics"].get(entry["name"])
        value = row["value"] if row and row["value"] is not None else 0.0
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    return json.dumps({
        "correct": document["correct"],
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    })


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the client request streams (default 1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="timed seconds per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="add traced repetitions and per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one tiny repetition per workload, in seconds")
    parser.add_argument("--list", action="store_true",
                        help="list the workloads and why each exists")
    parser.add_argument("--out", metavar="PATH",
                        help="also write the full result document here")
    args = parser.parse_args(argv)

    import workloads
    from deploy import surviving_children

    if args.list:
        for workload in workloads.WORKLOADS:
            print(f"{workload.name:<16}{workload.why}")
        return 0
    unknown = set(args.workload or ()) - set(workloads.BY_NAME)
    if unknown:
        parser.error(f"unknown workload(s): {sorted(unknown)}")
    selected = [
        w for w in workloads.WORKLOADS
        if not args.workload or w.name in args.workload
    ]
    units = {
        entry["name"]: entry["unit"]
        for entry in spec["end_to_end"] + spec["per_layer"]
    }
    OUT.mkdir(exist_ok=True)
    runs = [
        WorkloadRun(w, args.seed, args.seconds, bool(args.trace), args.smoke)
        for w in selected
    ]
    started = time.perf_counter()
    try:
        pending = list(runs)
        while pending:  # round-robin: one repetition of each per round
            for run in list(pending):
                traced = run.next_is_traced()
                if traced is None:
                    pending.remove(run)
                else:
                    run.run_one(traced)
        for run in runs:
            run.finish()
    finally:
        leaked = surviving_children()
        for pid in leaked:
            os.kill(pid, 9)
    documents = {run.workload.name: run.document(units) for run in runs}
    for name, document in documents.items():
        print(render(name, document))
    if leaked:
        print(f"FAILED: child process(es) {leaked} outlived their "
              "deployment and were killed", file=sys.stderr)
    correct = not leaked and all(d["correct"] for d in documents.values())
    if args.out:
        pathlib.Path(args.out).write_text(json.dumps({
            "schema": "repro-suite/1", "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace),
            "smoke": args.smoke, "wall_s": time.perf_counter() - started,
            "workloads": documents,
        }, indent=1) + "\n")
    if len(runs) == 1:
        document = dict(documents[runs[0].workload.name])
        document["correct"] = document["correct"] and not leaked
        print(contract_line(spec, document, bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
