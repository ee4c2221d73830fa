"""Tests for the ledger's ordering contract and its worker-process path.

The guarantee under test is the one docs/PERFORMANCE.md documents:
``run_all(jobs=N)`` returns reports in :func:`experiment_order` and renders
byte-identically to the serial run for every ``N``.  The verbose CLI
output is byte-identical across launches too, whatever the string-hash
seed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    EXPERIMENT_ORDER,
    EXTENSION_ORDER,
    all_experiments,
    experiment_order,
    render_summary,
    run_all,
)


class TestOrdering:
    def test_all_experiments_in_documented_order(self):
        assert tuple(all_experiments()) == EXPERIMENT_ORDER
        assert tuple(all_experiments(extended=True)) == (
            EXPERIMENT_ORDER + EXTENSION_ORDER
        )

    def test_experiment_order_helper(self):
        assert experiment_order() == EXPERIMENT_ORDER
        assert experiment_order(extended=True)[-len(EXTENSION_ORDER):] == (
            EXTENSION_ORDER
        )

    def test_mutating_the_returned_dict_is_harmless(self):
        snapshot = all_experiments()
        snapshot["bogus"] = lambda: None
        snapshot.pop("table1")
        assert tuple(all_experiments()) == EXPERIMENT_ORDER

    def test_run_all_reports_follow_registration_order(self):
        names = [r.experiment for r in run_all()]
        # Experiment display names are distinct per entry; the summary
        # must list them in EXPERIMENT_ORDER positions.
        assert len(names) == len(EXPERIMENT_ORDER)
        assert names[0].startswith("Table 1")
        assert names[-1].startswith("Section 9 (schedulable-fraction")


class TestSerialEquivalence:
    @pytest.fixture(scope="class")
    def serial(self):
        return render_summary(run_all(extended=True))

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_extended_ledger_is_byte_identical(self, serial, jobs):
        assert render_summary(run_all(extended=True, jobs=jobs)) == serial

    def test_cli_jobs_stdout_is_byte_identical(self, capsys):
        from repro.cli import main

        assert main(["reproduce", "--extended", "--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["reproduce", "--extended", "--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial
        assert "ALL CHECKS PASS" in serial

    def test_cli_verbose_stdout_ignores_the_hash_seed(self):
        root = Path(__file__).resolve().parent.parent
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=str(root / "src"))
            done = subprocess.run(
                [sys.executable, "-m", "repro", "reproduce", "-v",
                 "--extended"],
                cwd=root, env=env, stdout=subprocess.PIPE, check=True,
            )
            outs.append(done.stdout)
        assert outs[0] == outs[1]
