"""Run the whole reproduction ledger and render the summary.

Ordering contract
-----------------

The ledger renders in one **explicit, documented order** —
:data:`EXPERIMENT_ORDER` followed (when extended) by
:data:`EXTENSION_ORDER`, the order EXPERIMENTS.md presents the artifacts
in.  :func:`all_experiments` returns its mapping in exactly that order and
:func:`run_all` returns reports in exactly that order, *including when the
experiments run in worker processes*: ``ProcessPoolExecutor.map`` yields
results in submission order, so ``render_summary(run_all(jobs=N))`` is
byte-identical for every ``N``.  Extensions that register new experiments
must append to these tuples rather than mutate the returned dict.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Tuple

from repro.experiments.figures import (
    run_example5,
    run_figure1,
    run_figure2,
    run_figure3,
    run_figure4,
    run_figure5,
    run_table1,
)
from repro.experiments.extensions import (
    run_ablation_extension,
    run_open_system_extension,
    run_overload_extension,
    run_reconstruction_findings,
    run_refined_analysis_extension,
)
from repro.experiments.section9 import run_section9_analysis, run_section9_sweep
from repro.experiments.spec import ExperimentReport

#: Rendering order of the core ledger (mirrors EXPERIMENTS.md top-to-bottom).
EXPERIMENT_ORDER: Tuple[str, ...] = (
    "table1",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "example5",
    "section9",
    "section9-sweep",
)

#: Rendering order of the extension experiments (after the core ledger).
EXTENSION_ORDER: Tuple[str, ...] = (
    "overload",
    "open-system",
    "ablation",
    "refined-analysis",
    "reconstruction-findings",
)

_EXPERIMENTS: Dict[str, Callable[[], ExperimentReport]] = {
    "table1": run_table1,
    "figure1": run_figure1,
    "figure2": run_figure2,
    "figure3": run_figure3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "example5": run_example5,
    "section9": run_section9_analysis,
    "section9-sweep": run_section9_sweep,
}

_EXTENSIONS: Dict[str, Callable[[], ExperimentReport]] = {
    "overload": run_overload_extension,
    "open-system": run_open_system_extension,
    "ablation": run_ablation_extension,
    "refined-analysis": run_refined_analysis_extension,
    "reconstruction-findings": run_reconstruction_findings,
}


def experiment_order(*, extended: bool = False) -> Tuple[str, ...]:
    """The documented rendering order of the ledger's experiment names."""
    return EXPERIMENT_ORDER + (EXTENSION_ORDER if extended else ())


def all_experiments(*, extended: bool = False) -> Dict[str, Callable[[], ExperimentReport]]:
    """Name -> runner, in :func:`experiment_order`; a fresh copy each call.

    The returned dict is a snapshot — mutating it does not register new
    experiments and cannot perturb the summary order.  Pass
    ``extended=True`` to include the extensions.
    """
    registry = dict(_EXPERIMENTS)
    registry.update(_EXTENSIONS)
    return {name: registry[name] for name in experiment_order(extended=extended)}


def _call(func: Callable[[], ExperimentReport]) -> ExperimentReport:
    """Run one experiment (module-level, so a worker process can unpickle it)."""
    return func()


def run_all(*, extended: bool = False, jobs: int = 1) -> List[ExperimentReport]:
    """Execute the ledger (deterministic; well under a second).

    ``jobs > 1`` runs the independent experiments in that many worker
    processes (capped at the number of experiments).  The returned list is
    always in :func:`experiment_order`, so the rendered summary is
    byte-identical for every ``jobs`` value.
    """
    funcs = list(all_experiments(extended=extended).values())
    if jobs <= 1:
        return [func() for func in funcs]
    with ProcessPoolExecutor(max_workers=min(jobs, len(funcs))) as pool:
        return list(pool.map(_call, funcs))


def render_summary(reports: List[ExperimentReport], *, verbose: bool = False) -> str:
    """Human-readable summary; failures are always expanded."""
    lines: List[str] = []
    total = passed = 0
    for report in reports:
        lines.append(report.render(verbose=verbose))
        total += len(report.checks)
        passed += report.n_passed
    status = "ALL CHECKS PASS" if passed == total else "FAILURES PRESENT"
    lines.append("")
    lines.append(f"reproduction ledger: {passed}/{total} checks pass — {status}")
    return "\n".join(lines)
