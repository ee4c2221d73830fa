"""The bench-pair verdicts (benchmarks/bench_pair.py) on synthetic pairs.

``summarize`` is the whole decision: the choosing-metrics §8 gain rule
and the no-regression verdict against a ``BENCHMARK.json`` bound.  No
suite run is made here: ``main`` is driven over a stand-in ``run_once``.
"""

import pytest

from benchmarks import bench_pair
from benchmarks.bench_pair import summarize

STEADY = [100.0, 101.0, 99.0, 100.0, 100.5, 99.5]
NOISY = [50.0, 150.0, 100.0, 60.0, 140.0, 100.0]


def verdict(refs, news, higher=True, bound=0.25):
    line, result = summarize("m", higher, bound, list(zip(refs, news)))
    assert line.endswith(f": {result}")
    return line, result


class TestNoRegressionVerdict:
    def test_small_loss_within_the_bound_is_ok(self):
        _, result = verdict(STEADY, [x * 0.9 for x in STEADY])
        assert result == "ok"

    def test_loss_beyond_the_bound_is_a_regression(self):
        _, result = verdict(STEADY, [x * 0.6 for x in STEADY])
        assert result == "REGRESSION"

    def test_lower_is_better_metrics_regress_upwards(self):
        _, result = verdict(STEADY, [x * 1.3 for x in STEADY], higher=False)
        assert result == "REGRESSION"
        _, result = verdict(STEADY, [x * 0.5 for x in STEADY], higher=False)
        assert result == "ok"

    def test_noisy_reference_is_unresolved(self):
        # ref IQR/median is ~0.75, far over the 0.25 bound: even a large
        # loss cannot be told from noise.
        _, result = verdict(NOISY, [x * 0.5 for x in NOISY])
        assert result == "unresolved"
        _, result = verdict(NOISY, NOISY)
        assert result == "unresolved"

    def test_noisy_reference_beaten_by_every_change_run_is_ok(self):
        _, result = verdict(NOISY, [200.0, 210.0, 220.0, 205.0, 215.0, 201.0])
        assert result == "ok"


class TestGainRule:
    def test_nine_tenths_wins_beyond_the_reference_iqr_is_a_gain(self):
        refs = [100.0 + i % 3 for i in range(10)]
        line, _ = verdict(refs, [x + 10.0 for x in refs])
        assert "wins 10/10" in line and "-> GAIN" in line

    def test_too_few_wins_shows_no_gain(self):
        refs = [100.0 + i % 3 for i in range(10)]
        news = [x + 10.0 for x in refs[:8]] + [x - 1.0 for x in refs[8:]]
        line, _ = verdict(refs, news)
        assert "wins 8/10" in line and "no gain shown" in line

    def test_medians_inside_the_reference_iqr_show_no_gain(self):
        line, _ = verdict(NOISY, [x + 1.0 for x in NOISY])
        assert "wins 6/6" in line and "no gain shown" in line

    def test_ties_are_not_decided_pairs(self):
        refs = [100.0 + i % 3 for i in range(10)]
        news = [x + 10.0 for x in refs[:9]] + [refs[9]]
        line, _ = verdict(refs, news)
        assert "wins 9/9 (ties 1)" in line and "-> GAIN" in line


class TestPairCount:
    @staticmethod
    def _runs(monkeypatch):
        runs = []

        def run_once(tree, workload, seed):
            runs.append((tree, workload, seed))
            return {"txn_per_s": 100.0, "cpu_ms_per_txn": 1.0,
                    "peak_rss_mb": 50.0, "setup_s": 0.5}

        monkeypatch.setattr(bench_pair, "run_once", run_once)
        return runs

    def test_fewer_than_ten_pairs_is_a_usage_error(self, monkeypatch, capsys):
        runs = self._runs(monkeypatch)
        with pytest.raises(SystemExit) as exited:
            bench_pair.main(["--ref", str(bench_pair.ROOT),
                             "--workload", "sim-grid", "--pairs", "5"])
        assert exited.value.code == 2
        assert "at least 10 pairs" in capsys.readouterr().err
        assert runs == []

    def test_ten_pairs_run_both_sides_of_each(self, monkeypatch):
        runs = self._runs(monkeypatch)
        assert bench_pair.main(["--ref", str(bench_pair.ROOT),
                                "--workload", "sim-grid"]) == 0
        assert len(runs) == 20
