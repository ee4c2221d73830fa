"""The reproduction ledger: every paper claim as an executable check.

This package runs each of the paper's artifacts (Table 1, Figures 1-5,
Example 5, the Section 9 analysis) and produces a structured
:class:`~repro.experiments.spec.ExperimentReport` of *claim → expected →
measured → pass/fail*.  The CLI's ``repro reproduce`` command prints the
full ledger; the test suite asserts every check passes; EXPERIMENTS.md is
the prose rendering of the same content.
"""

from repro import _lazy_surface

__getattr__, __dir__, __all__ = _lazy_surface(__name__, {
    "repro.experiments.spec": ("Check", "ExperimentReport"),
    "repro.experiments.figures": (
        "run_example5", "run_figure1", "run_figure2", "run_figure3",
        "run_figure4", "run_figure5", "run_table1",
    ),
    "repro.experiments.section9": (
        "run_section9_analysis", "run_section9_sweep",
    ),
    "repro.experiments.runner": (
        "EXPERIMENT_ORDER", "EXTENSION_ORDER", "all_experiments",
        "experiment_order", "render_summary", "run_all",
    ),
})
