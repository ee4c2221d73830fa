"""Smoke test of the benchmark suite: ``python -m pytest benchmarks/suite -q``.

Runs ``run.py --smoke --trace`` (every workload, one tiny repetition plus
one traced, seconds in total) and checks the result document against
``BENCHMARK.json``: every declared workload ran and was correct, every
declared metric is named by at least one workload, and the one-workload
contract line carries exactly the declared keys.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT_S = 300


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


@pytest.fixture(scope="module")
def smoke_document(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("suite") / "smoke.json"
    done = _run("--smoke", "--trace", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())


def test_every_declared_workload_ran_and_was_correct(smoke_document):
    declared = [w["name"] for w in SPEC["workloads"]]
    assert list(smoke_document["workloads"]) == declared
    for name, result in smoke_document["workloads"].items():
        assert result["correct"], (name, result["problems"])
        assert result["attempted"] >= 1 and result["failed"] == 0, name
        assert result["traced_repetitions"] == 1, name


def test_every_declared_metric_is_named_with_its_unit(smoke_document):
    units = {
        m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]
    }
    seen = {}
    for result in smoke_document["workloads"].values():
        for metric, row in result["metrics"].items():
            assert row["unit"] == units[metric], metric
            seen[metric] = row
    assert sorted(seen) == sorted(units)
    for result in smoke_document["workloads"].values():
        for m in SPEC["end_to_end"]:  # gated metrics: everywhere, never 0
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def test_trace_file_is_written_per_workload(smoke_document):
    for name in smoke_document["workloads"]:
        trace = json.loads((HERE / "out" / f"trace-{name}.json").read_text())
        assert trace["workload"] == name and trace["spans"], name
        assert len(trace["spans"][0]) == len(trace["fields"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_contract_line_of_a_one_workload_run(trace):
    done = _run("--workload", "svc-wide-c8", "--seed", "3", "--smoke",
                "--trace", trace)
    assert done.returncode == 0, done.stdout + done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0
    declared = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_outside_a_full_checkout(tmp_path):
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        (suite / source.name).write_text(source.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, str(suite / "run.py"), "--workload", "sim-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    assert done.returncode != 0
    assert done.stdout == ""
