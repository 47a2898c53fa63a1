"""Verification report shared by decomposition, measure, and pipeline checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class VerificationReport:
    """Named residuals, the thresholds they were held to, and pass flags.

    A report never raises; callers inspect ``all_passed`` or ``failed``.
    ``residuals``, ``passed``, and ``tolerances`` name the same checks in
    the same order (ValueError otherwise), so each claim can be audited
    against its bound.  Checkers build reports with ``from_checks``.
    """

    residuals: dict[str, float] = field(default_factory=dict)
    passed: dict[str, bool] = field(default_factory=dict)
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if not list(self.residuals) == list(self.passed) == list(self.tolerances):
            raise ValueError("residuals, pass and tolerances must name the "
                             "same checks in the same order")

    @classmethod
    def from_checks(cls, checks) -> "VerificationReport":
        """Report from ``(name, value, bound[, passed])`` records.

        ``passed`` defaults to ``value <= bound``.
        """
        residuals, passed, tolerances = {}, {}, {}
        for name, value, bound, *verdict in checks:
            residuals[name] = value
            tolerances[name] = bound
            passed[name] = verdict[0] if verdict else value <= bound
        return cls(residuals, passed, tolerances)

    def extended(self, checks) -> "VerificationReport":
        """This report with ``checks`` appended after its own records."""
        own = zip(self.residuals, self.residuals.values(),
                  self.tolerances.values(), self.passed.values())
        return VerificationReport.from_checks([*own, *checks])

    @property
    def failed(self) -> list[str]:
        """Names of the checks that did not pass, in report order."""
        return [name for name, ok in self.passed.items() if not ok]

    @property
    def all_passed(self) -> bool:
        return all(self.passed.values())

    def to_json_dict(self) -> dict:
        return {
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "pass": {k: bool(v) for k, v in self.passed.items()},
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
        }

    @classmethod
    def _from_json_dict(cls, doc: dict) -> "VerificationReport":
        """The report a document holds; ``io.report_from_doc`` reads it."""
        return cls(dict(doc["residuals"]), dict(doc["pass"]),
                   dict(doc["tolerances"]))
