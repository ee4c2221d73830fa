"""Every example script must run cleanly end to end (deliverable guard).

The scripts are executed in-process (imported with ``runpy``) with small
sweep arguments so the whole file stays fast.  The Quickstart code of
the README and of the package docstring runs here too, so documented
code that stops working fails a test.
"""

import runpy
import sys
import textwrap
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES_DIR = ROOT / "examples"


def _readme_quickstart() -> str:
    """The Python block of the README's "Quickstart" section."""
    section = (ROOT / "README.md").read_text().split("## Quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _docstring_quickstart() -> str:
    """The indented ``Quickstart::`` block of the package docstring."""
    block = []
    for line in repro.__doc__.split("Quickstart::\n", 1)[1].splitlines():
        if line and not line.startswith(" "):
            break
        block.append(line)
    return textwrap.dedent("\n".join(block))


@pytest.mark.parametrize("source", [_readme_quickstart, _docstring_quickstart])
def test_documented_quickstart_runs(source, capsys):
    exec(compile(source(), source.__name__, "exec"), {"__name__": "__main__"})
    out = capsys.readouterr().out
    assert "T1" in out and "T2" in out


def _run_script(name: str, argv):
    """Execute an example script as __main__ with the given argv."""
    path = EXAMPLES_DIR / name
    old_argv = sys.argv
    sys.argv = [str(path)] + argv
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExampleScripts:
    def test_directory_contains_all_advertised_scripts(self):
        names = {p.name for p in EXAMPLES_DIR.glob("*.py")}
        assert {
            "quickstart.py",
            "paper_figures.py",
            "avionics_monitor.py",
            "protocol_shootout.py",
            "schedulability_study.py",
            "firm_overload.py",
            "step_debugger.py",
        } <= names

    def test_quickstart(self, capsys):
        _run_script("quickstart.py", [])
        out = capsys.readouterr().out
        assert "pcp-da" in out and "rw-pcp" in out
        assert "total blocking" in out

    def test_paper_figures(self, capsys):
        _run_script("paper_figures.py", [])
        out = capsys.readouterr().out
        assert "Figure 2" in out and "Figure 5" in out
        assert "DEADLOCK" in out

    def test_avionics_monitor(self, capsys):
        _run_script("avionics_monitor.py", [])
        out = capsys.readouterr().out
        assert "SCHEDULABLE" in out
        assert "AttitudeCtl" in out

    def test_protocol_shootout(self, capsys):
        _run_script("protocol_shootout.py", ["--seeds", "2"])
        out = capsys.readouterr().out
        assert "pcp-da" in out and "2pl-hp" in out

    def test_schedulability_study(self, capsys):
        _run_script("schedulability_study.py", ["--sets", "2"])
        out = capsys.readouterr().out
        assert "breakdown" in out.lower()
        assert "da vs rw" in out

    def test_firm_overload(self, capsys):
        _run_script("firm_overload.py", ["--seeds", "2"])
        out = capsys.readouterr().out
        assert "miss%" in out

    def test_step_debugger(self, capsys):
        _run_script("step_debugger.py", [])
        out = capsys.readouterr().out
        assert "t = 4" in out
        assert "history is serializable." in out

    def test_step_debugger_other_protocol(self, capsys):
        _run_script("step_debugger.py", ["--protocol", "rw-pcp"])
        out = capsys.readouterr().out
        assert "BLOCKED" in out  # T3's ceiling blocking is visible
