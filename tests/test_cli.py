"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestCLI:
    def test_protocols_lists_everything(self, capsys):
        assert main(["protocols"]) == 0
        out = capsys.readouterr().out
        for name in ("pcp-da", "rw-pcp", "ccp", "2pl-hp"):
            assert name in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "NOK" in out and "T_L holds" in out

    def test_examples_prints_figures_and_deadlock(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "Example 1 (Figure 1) under rw-pcp" in out
        assert "Example 4 (Figures 4/5) under pcp-da" in out
        assert "deadlock at t=3" in out
        assert "#=executing" in out

    def test_schedulability(self, capsys):
        assert main(["schedulability", "--seed", "1", "--transactions", "4"]) == 0
        out = capsys.readouterr().out
        assert "breakdown utilisation" in out
        assert "BTS_i" in out

    def test_compare(self, capsys):
        assert main([
            "compare", "--seed", "1", "--transactions", "4", "--utilization", "0.4",
        ]) == 0
        out = capsys.readouterr().out
        assert "pcp-da" in out and "2pl-hp" in out
        assert "maxceil" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_export_writes_files(self, tmp_path, capsys):
        assert main([
            "export", "example4", "--protocol", "rw-pcp",
            "--output-dir", str(tmp_path),
        ]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "example4_rw-pcp.json",
            "example4_rw-pcp.svg",
            "example4_rw-pcp_segments.csv",
            "example4_rw-pcp_sysceil.csv",
            "example4_rw-pcp_metrics.csv",
        }
        import json

        doc = json.loads((tmp_path / "example4_rw-pcp.json").read_text())
        assert doc["protocol"] == "rw-pcp"

    def test_compare_includes_new_protocols(self, capsys):
        assert main([
            "compare", "--seed", "2", "--transactions", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "occ-bc" in out and "rw-pcp-abort" in out

    def test_export_rejects_unknown_example(self):
        with pytest.raises(SystemExit):
            main(["export", "example9"])

    def test_simulate_with_horizon_flag(self, tmp_path, capsys):
        from repro.workloads.examples import example3_taskset
        from repro.workloads.io import dump_taskset

        path = tmp_path / "ts.json"
        dump_taskset(example3_taskset(), str(path))
        assert main([
            "simulate", str(path), "--horizon", "11", "--protocol", "rw-pcp",
        ]) == 0
        out = capsys.readouterr().out
        assert "MISSED" in out  # Figure 3's deadline miss

    def test_simulate_reports_bad_file(self, tmp_path):
        from repro.exceptions import SpecificationError

        path = tmp_path / "bad.json"
        path.write_text("{broken")
        with pytest.raises(SpecificationError):
            main(["simulate", str(path)])

    def test_schedulability_shows_refined_terms(self, capsys):
        assert main(["schedulability", "--seed", "4", "--transactions", "4"]) == 0
        out = capsys.readouterr().out
        assert "critical-section refinement" in out

    @pytest.mark.parametrize(
        "command", ["serve", "loadgen", "stress", "shard-host"]
    )
    def test_service_commands_take_only_the_served_protocols(
        self, command, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--protocol", "2pl-hp"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "2pl-hp" in err
        assert all(name in err for name in ("pcp-da", "rw-pcp", "pcp"))


class TestReproduceProfileFlag:
    """``--profile`` must leave the process profiler exactly as it found
    it and still emit its report — on success *and* when the run raises
    (an outer coverage tool or profiler must never be clobbered)."""

    def _sentinel(self):
        def profile_fn(frame, event, arg):  # pragma: no cover - inert
            return None

        return profile_fn

    def test_profile_restores_profiler_on_success(self, capsys, monkeypatch):
        import sys as _sys

        import repro.cli as cli

        monkeypatch.setattr(cli, "_run_reproduce", lambda args: 0)
        sentinel = self._sentinel()
        _sys.setprofile(sentinel)
        try:
            code = main(["reproduce", "--profile"])
            restored = _sys.getprofile()
        finally:
            _sys.setprofile(None)
        assert code == 0
        assert restored is sentinel
        err = capsys.readouterr().err
        assert "cProfile: hottest functions" in err

    def test_profile_restores_profiler_when_run_raises(
        self, capsys, monkeypatch
    ):
        import sys as _sys

        import repro.cli as cli

        def boom(args):
            raise RuntimeError("run exploded")

        monkeypatch.setattr(cli, "_run_reproduce", boom)
        sentinel = self._sentinel()
        _sys.setprofile(sentinel)
        try:
            with pytest.raises(RuntimeError, match="run exploded"):
                main(["reproduce", "--profile"])
            restored = _sys.getprofile()
        finally:
            _sys.setprofile(None)
        assert restored is sentinel
        # The report still runs (and must not mask the original error).
        err = capsys.readouterr().err
        assert "cProfile: hottest functions" in err


class TestLoadgenExitCode:
    """`repro loadgen` must exit non-zero when the serializability
    replay fails — the oracle's verdict is the command's verdict."""

    def _patched_main(self, monkeypatch, serializable):
        import repro.service as service
        from repro.service.loadgen import LoadgenConfig, LoadReport

        report = LoadReport(
            config=LoadgenConfig(clients=1, transactions_per_client=1),
            protocol="pcp-da",
            wall_s=1.0,
            serializable=serializable,
            violation="" if serializable else "cycle T1#0 -> T2#0 -> T1#0",
        )

        async def fake_run_loadgen(config, connect):
            return report

        monkeypatch.setattr(service, "run_loadgen", fake_run_loadgen)
        # --connect avoids self-hosting a server; the patched loadgen
        # never dials it, so the whole test is socket-free
        return main(["loadgen", "--connect", "127.0.0.1:1"])

    def test_violation_exits_nonzero(self, monkeypatch, capsys):
        assert self._patched_main(monkeypatch, serializable=False) == 1
        assert "VIOLATION" in capsys.readouterr().out

    def test_serializable_run_exits_zero(self, monkeypatch, capsys):
        assert self._patched_main(monkeypatch, serializable=True) == 0
        assert "serializability: OK" in capsys.readouterr().out


@pytest.mark.stress
class TestStressCommand:
    def test_small_run_exits_zero(self, capsys):
        code = main([
            "stress", "--transactions", "120", "--overload", "1.2",
            "--shards", "1", "--parity-seeds", "1",
            "--parity-transactions", "8", "--sim-limit", "60",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "decision parity: OK" in out
        assert "simulator oracle: OK" in out
        assert "conservation: OK" in out

    def test_failure_exits_nonzero(self, monkeypatch, capsys):
        # sabotage the parity battery to prove the gate actually gates
        import repro.verify.parity as parity

        def explode(**kwargs):
            raise parity.ParityError("synthetic divergence")

        monkeypatch.setattr(parity, "parity_battery", explode)
        code = main([
            "stress", "--transactions", "60", "--shards", "1",
            "--parity-seeds", "1", "--sim-limit", "40",
        ])
        assert code == 1
        assert "decision parity: FAIL" in capsys.readouterr().out
