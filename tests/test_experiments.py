"""Tests for the reproduction ledger (repro.experiments)."""

import pytest

from repro.experiments import (
    all_experiments,
    render_summary,
    run_all,
    run_example5,
    run_figure1,
    run_figure4,
    run_section9_analysis,
    run_table1,
)
from repro.experiments.spec import Check, ExperimentReport


class TestSpec:
    def test_check_equality_default(self):
        report = ExperimentReport("X", "nowhere")
        assert report.check("a claim", 3, 3).passed
        assert not report.check("another", 3, 4).passed
        assert report.n_passed == 1
        assert not report.passed

    def test_check_custom_predicate(self):
        report = ExperimentReport("X", "nowhere")
        entry = report.check(
            "within tolerance", 1.0, 1.05,
            predicate=lambda e, m: abs(e - m) < 0.1,
        )
        assert entry.passed

    def test_check_true(self):
        report = ExperimentReport("X", "nowhere")
        assert report.check_true("yes", True).passed
        assert not report.check_true("no", False).passed

    def test_render_expands_failures(self):
        report = ExperimentReport("X", "nowhere")
        report.check("good", 1, 1)
        report.check("bad", 1, 2)
        text = report.render()
        assert "bad" in text and "good" not in text
        verbose = report.render(verbose=True)
        assert "good" in verbose

    def test_check_render_format(self):
        check = Check("claim", "1", "2", False)
        assert check.render() == "[FAIL] claim: expected 1, measured 2"


class TestLedger:
    @pytest.mark.parametrize(
        "runner",
        [run_table1, run_figure1, run_figure4, run_example5,
         run_section9_analysis],
    )
    def test_individual_experiments_pass(self, runner):
        report = runner()
        assert report.passed, report.render()
        assert report.checks  # non-empty

    def test_full_ledger_passes(self):
        reports = run_all()
        assert len(reports) == len(all_experiments())
        for report in reports:
            assert report.passed, report.render()

    def test_summary_counts(self):
        reports = run_all()
        text = render_summary(reports)
        assert "ALL CHECKS PASS" in text
        total = sum(len(r.checks) for r in reports)
        assert f"{total}/{total} checks pass" in text

    def test_artifacts_present(self):
        report = run_figure4()
        assert "Max_Sysceil" in report.artifact
        assert "#" in report.artifact  # the Gantt glyphs

    def test_cli_reproduce_exit_code(self, capsys):
        from repro.cli import main

        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASS" in out

    def test_cli_reproduce_reruns_changed_code(self, capsys, monkeypatch, tmp_path):
        # Every run recomputes the ledger: a change to the code behind a
        # claim must change the verdict on the very next run, never be
        # answered from an earlier run's results.  HOME points at tmp_path
        # so nothing can persist between the two runs outside the test.
        import repro.experiments.figures as figures
        from repro.cli import main

        monkeypatch.setenv("HOME", str(tmp_path))
        assert main(["reproduce"]) == 0
        capsys.readouterr()

        real_table = figures.compatibility_table

        def flipped_read_read():
            return [
                (held, req, cond, not ok if (held, req) == ("read", "read") else ok)
                for held, req, cond, ok in real_table()
            ]

        monkeypatch.setattr(figures, "compatibility_table", flipped_read_read)
        assert main(["reproduce"]) == 1
        assert "FAILURES PRESENT" in capsys.readouterr().out

    def test_extended_ledger_passes(self):
        from repro.experiments.runner import run_all

        reports = run_all(extended=True)
        extension_reports = [r for r in reports if "extension" in r.experiment]
        assert len(extension_reports) == 5
        for report in reports:
            assert report.passed, report.render()

    def test_extended_experiments_registered(self):
        base = all_experiments()
        extended = all_experiments(extended=True)
        assert set(base) < set(extended)
        assert {"overload", "open-system", "ablation", "refined-analysis",
         "reconstruction-findings"} <= set(
            extended
        )
