"""Structured paper-vs-measured reporting."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional


@dataclass(frozen=True)
class Check:
    """One verifiable claim from the paper.

    Attributes:
        claim: what the paper says (paraphrased, with the section).
        expected: rendered expected value.
        measured: rendered measured value.
        passed: whether they agree.
    """

    claim: str
    expected: str
    measured: str
    passed: bool

    def render(self) -> str:
        """One-line ``[PASS/FAIL] claim: expected vs measured``."""
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.claim}: expected {self.expected}, measured {self.measured}"


@dataclass
class ExperimentReport:
    """All checks of one experiment, plus a printable artifact."""

    experiment: str
    source: str
    checks: List[Check] = field(default_factory=list)
    artifact: str = ""

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def n_passed(self) -> int:
        return sum(check.passed for check in self.checks)

    def check(
        self,
        claim: str,
        expected: Any,
        measured: Any,
        *,
        predicate: Optional[Callable[[Any, Any], bool]] = None,
    ) -> Check:
        """Record one claim; default comparison is equality."""
        if predicate is None:
            passed = expected == measured
        else:
            passed = predicate(expected, measured)
        entry = Check(claim, repr(expected), repr(measured), passed)
        self.checks.append(entry)
        return entry

    def check_true(self, claim: str, condition: bool, measured: Any = None) -> Check:
        """Record a boolean claim."""
        entry = Check(
            claim, "True", repr(measured) if measured is not None else str(condition),
            bool(condition),
        )
        self.checks.append(entry)
        return entry

    def render(self, *, verbose: bool = False) -> str:
        """Header plus failing checks (all checks when ``verbose``)."""
        lines = [f"== {self.experiment} ({self.source}) — "
                 f"{self.n_passed}/{len(self.checks)} checks pass =="]
        for check in self.checks:
            if verbose or not check.passed:
                lines.append("  " + check.render())
        if verbose and self.artifact:
            lines.append(self.artifact)
        return "\n".join(lines)
