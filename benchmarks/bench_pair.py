"""Alternating parent/change runs of end-to-end suite workloads.

Usage::

    python3 benchmarks/bench_pair.py --ref REF --workload NAME[,NAME...|all]
        [--pairs 10]
    make bench-pair REF=<commit> WORKLOAD=<name>[,<name>...|all] [PAIRS=10]

The sandbox has two host speed regimes (suite README, "spread"), so two
commits are compared only by time-paired runs.  This runs
``benchmarks/suite/run.py --workload NAME --seed i --trace 0`` once in
the reference tree and once in this one for each pair ``i``, the side
that goes first alternating too, and prints every pair, each side's
median and quartiles, wins and ties, and — the rule the suite README and
the choosing-metrics guide (§8) prescribe — whether the change won at
least nine tenths of the decided pairs *and* the medians differ by more
than the distance between the reference's own quartiles.

It is also the no-regression gate.  Each end-to-end metric gets one of
three verdicts against its ``bound`` in ``BENCHMARK.json``: ``ok`` (the
change's median is no worse than the reference's by more than the
bound), ``REGRESSION`` (it is), or ``unresolved`` (the reference's own
IQR/median exceeds the bound, so the runs cannot tell — unless every
change run beats every reference run).  The exit status is 1 when any
metric of any workload is a ``REGRESSION``.

``--workload`` takes one name, a comma list, or ``all`` (every workload
in ``BENCHMARK.json``).  With several, pair ``i`` of every workload runs
before pair ``i + 1`` of any, so a speed-regime flip lands on all of them
alike, and the report has one verdict block per workload.

``REF`` is a commit (checked out with ``git worktree add`` under a
temporary directory, removed afterwards) or the path of an existing
checkout.  Nothing under ``benchmarks/suite/`` is edited; each tree runs
its own copy of the suite, which writes only under its own
``benchmarks/suite/out/``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_once(tree: pathlib.Path, workload: str, seed: int) -> Dict[str, float]:
    """One suite run in ``tree``; its end-to-end metrics by name."""
    done = subprocess.run(
        ["python3", "benchmarks/suite/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if done.returncode != 0 or not result.get("correct") or result["failed"]:
        sys.exit(f"{tree}: run failed (exit {done.returncode}): {result}")
    return {
        name: metric["value"] for name, metric in result["metrics"].items()
    }


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3); a single run is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(name: str, higher_is_better: bool, bound: float,
              pairs: List[Tuple[float, float]]) -> Tuple[str, str]:
    """One metric over ``(ref, change)`` pairs: the report line and the
    no-regression verdict (``ok``, ``REGRESSION`` or ``unresolved``)."""
    refs = [ref for ref, _ in pairs]
    news = [new for _, new in pairs]
    ref_q1, ref_median, ref_q3 = quartiles(refs)
    new_q1, new_median, new_q3 = quartiles(news)
    sign = 1 if higher_is_better else -1
    wins = sum(1 for ref, new in pairs if sign * (new - ref) > 0)
    ties = sum(1 for ref, new in pairs if new == ref)
    decided = len(pairs) - ties
    beyond = sign * (new_median - ref_median) > ref_q3 - ref_q1
    gain = decided > 0 and wins >= 0.9 * decided and beyond
    ratio = new_median / ref_median if ref_median else float("nan")
    scale = abs(ref_median) or 1.0
    dominates = min(sign * new for new in news) > max(sign * ref for ref in refs)
    if (ref_q3 - ref_q1) / scale > bound and not dominates:
        verdict = "unresolved"
    elif sign * (ref_median - new_median) / scale > bound:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    return (
        f"{name}: ref {ref_median:.6g} [{ref_q1:.6g}, {ref_q3:.6g}]  "
        f"change {new_median:.6g} [{new_q1:.6g}, {new_q3:.6g}]  "
        f"ratio {ratio:.3f}  wins {wins}/{decided} (ties {ties})  "
        f"medians differ by more than ref IQR: {'yes' if beyond else 'no'}"
        f"  -> {'GAIN' if gain else 'no gain shown'}; "
        f"bound {bound:.0%}: {verdict}"
    ), verdict


def main(argv=None) -> int:
    """Run the pairs and print the report (exit 1 on a regression; a
    failed run exits with its message)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", required=True,
                        help="commit, or path of an existing checkout")
    parser.add_argument("--workload", required=True,
                        help="a workload, a comma list of them, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        metric["name"]: (metric["better"] == "higher", metric["bound"])
        for metric in spec["end_to_end"]
    }
    known = [workload["name"] for workload in spec["workloads"]]
    names = (
        known if args.workload == "all" else args.workload.split(",")
    )
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as scratch:
        ref_tree = pathlib.Path(args.ref)
        worktree = not ref_tree.is_dir()
        if worktree:
            ref_tree = pathlib.Path(scratch) / "ref"
            subprocess.run(
                ["git", "worktree", "add", "--detach", str(ref_tree),
                 args.ref], cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
            )
        try:
            rows: Dict[str, List[Dict[str, Dict[str, float]]]] = {
                workload: [] for workload in names
            }
            for pair in range(1, args.pairs + 1):
                order = ("ref", "change") if pair % 2 else ("change", "ref")
                for workload in names:
                    row = {
                        side: run_once(ref_tree if side == "ref" else ROOT,
                                       workload, pair)
                        for side in order
                    }
                    rows[workload].append(row)
                    print(f"{workload} pair {pair} ({order[0]} first): "
                          + "  ".join(
                              f"{name} {row['ref'][name]:.6g} -> "
                              f"{row['change'][name]:.6g}" for name in metrics
                          ), flush=True)
        finally:
            if worktree:
                subprocess.run(
                    ["git", "worktree", "remove", "--force", str(ref_tree)],
                    cwd=ROOT, check=False,
                )
    regressions = 0
    for workload, pairs in rows.items():
        print(f"\n{workload}, {len(pairs)} pairs, ref {args.ref}:")
        for name, (higher, bound) in metrics.items():
            line, verdict = summarize(
                name, higher, bound,
                [(row["ref"][name], row["change"][name]) for row in pairs],
            )
            print("  " + line)
            regressions += verdict == "REGRESSION"
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
