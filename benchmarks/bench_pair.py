"""Alternating parent/change runs of one end-to-end suite workload.

Usage::

    python3 benchmarks/bench_pair.py --ref REF --workload NAME [--pairs 10]
    make bench-pair REF=<commit> WORKLOAD=<name> [PAIRS=10]

The sandbox has two host speed regimes (suite README, "spread"), so two
commits are compared only by time-paired runs.  This runs
``benchmarks/suite/run.py --workload NAME --seed i --trace 0`` once in
the reference tree and once in this one for each pair ``i``, the side
that goes first alternating too, and prints every pair, each side's
median and quartiles, wins and ties, and — the rule the suite README and
the choosing-metrics guide (§8) prescribe — whether the change won at
least nine tenths of the decided pairs *and* the medians differ by more
than the distance between the reference's own quartiles.

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


def summarize(name: str, higher_is_better: bool,
              pairs: List[Tuple[float, float]]) -> str:
    """The §8 verdict for one metric over ``(ref, change)`` pairs."""
    ref_q1, ref_median, ref_q3 = quartiles([ref for ref, _ in pairs])
    new_q1, new_median, new_q3 = quartiles([new for _, new in pairs])
    sign = 1 if higher_is_better else -1
    wins = sum(1 for ref, new in pairs if sign * (new - ref) > 0)
    ties = sum(1 for ref, new in pairs if new == ref)
    decided = len(pairs) - ties
    beyond = sign * (new_median - ref_median) > ref_q3 - ref_q1
    gain = decided > 0 and wins >= 0.9 * decided and beyond
    ratio = new_median / ref_median if ref_median else float("nan")
    return (
        f"{name}: ref {ref_median:.6g} [{ref_q1:.6g}, {ref_q3:.6g}]  "
        f"change {new_median:.6g} [{new_q1:.6g}, {new_q3:.6g}]  "
        f"ratio {ratio:.3f}  wins {wins}/{decided} (ties {ties})  "
        f"medians differ by more than ref IQR: {'yes' if beyond else 'no'}"
        f"  -> {'GAIN' if gain else 'no gain shown'}"
    )


def main(argv=None) -> int:
    """Run the pairs and print the report (exit 0 unless a run fails)."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", required=True,
                        help="commit, or path of an existing checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)

    better = {
        metric["name"]: metric["better"] == "higher"
        for metric in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
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
            rows: List[Dict[str, Dict[str, float]]] = []
            for pair in range(1, args.pairs + 1):
                order = ("ref", "change") if pair % 2 else ("change", "ref")
                row = {
                    side: run_once(ref_tree if side == "ref" else ROOT,
                                   args.workload, pair)
                    for side in order
                }
                rows.append(row)
                print(f"pair {pair} ({order[0]} first): " + "  ".join(
                    f"{name} {row['ref'][name]:.6g} -> "
                    f"{row['change'][name]:.6g}" for name in better
                ), flush=True)
        finally:
            if worktree:
                subprocess.run(
                    ["git", "worktree", "remove", "--force", str(ref_tree)],
                    cwd=ROOT, check=False,
                )
    print(f"\n{args.workload}, {len(rows)} pairs, ref {args.ref}:")
    for name, higher in better.items():
        print("  " + summarize(
            name, higher,
            [(row["ref"][name], row["change"][name]) for row in rows],
        ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
