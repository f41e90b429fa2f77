"""Plain, serialisable check records shared by the verification routines.

Reports are deliberately dumb containers: a list of named checks, each with
an expected value, a measured value, a tolerance and a pass flag, plus a
free-form ``meta`` dict for context (parameters, distances, totals).  They
convert losslessly to the JSON emitted by the command line tool.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


@dataclass(frozen=True, init=False)
class CheckRecord:
    """One named check of ``measured`` against ``expected`` within ``tol``, with its bool ``passed`` and ``detail``.

    ``expected`` and ``measured`` are None where a verdict has no number:
    both for a limit track's monotone flag and a skipped duality residual,
    ``measured`` for a limit scale whose branch does not build, ``expected``
    for ``com``'s informational routes.  Such a record states its rule in
    ``detail``, a comment that is otherwise often empty.  :meth:`within`
    passes when |measured - expected| <= tol, so NaN never passes.
    """

    name: str
    expected: float | None
    measured: float | None
    tol: float
    passed: bool
    detail: str = ""

    def __init__(
        self, name: str, expected: float | None, measured: float | None, tol: float, passed: bool, detail: str = ""
    ) -> None:
        # One update of the instance dict costs a third of the six frozen
        # setattr calls a generated __init__ makes; verify builds six records.
        self.__dict__.update(name=name, expected=expected, measured=measured, tol=tol, passed=passed, detail=detail)

    @classmethod
    def within(cls, name: str, expected: float, measured: float, tol: float, detail: str = "") -> "CheckRecord":
        """A record that passes when ``|measured - expected| <= tol``; NaN never passes."""
        return cls(name, expected, measured, tol, abs(measured - expected) <= tol, detail)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "name": self.name,
            "expected": self.expected,
            "measured": self.measured,
            "tol": self.tol,
            "pass": self.passed,
        }
        if self.detail:
            d["detail"] = self.detail
        return d


@dataclass(frozen=True)
class CheckReport:
    """A named bundle of check records with optional context values."""

    kind: str
    checks: tuple[CheckRecord, ...]
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)

    def __iter__(self):
        return iter(self.checks)

    def record(self, name: str) -> CheckRecord:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "overall": self.overall,
            "checks": [c.to_dict() for c in sorted(self.checks, key=lambda c: c.name)],
            "meta": dict(self.meta),
        }
