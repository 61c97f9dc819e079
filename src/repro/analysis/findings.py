"""Findings: the unit of output of every lint rule and runtime sanitizer.

A :class:`Finding` names the rule that fired, how bad it is, where in the
input it happened, and why.  A :class:`Report` is an ordered collection of
findings with severity accessors and JSON-safe serialization — the common
currency of the static lint passes (:mod:`repro.analysis.linter`), the
runtime sanitizers (:mod:`repro.analysis.sanitizers`), and the ``repro
lint`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List

#: Severity levels, most severe first.  ``error`` findings make ``repro
#: lint`` exit nonzero and fail sweep points before dispatch; ``warning``
#: and ``info`` findings are reported but never block.
SEVERITIES = ("error", "warning", "info")

ERROR = "error"
WARNING = "warning"
INFO = "info"


@dataclass(frozen=True)
class Finding:
    """One problem detected by a rule or sanitizer.

    Attributes
    ----------
    rule:
        Stable rule id, e.g. ``"TR002"``.
    name:
        Human-readable rule slug, e.g. ``"tensor-dangling-ref"``.
    severity:
        One of :data:`SEVERITIES`.
    message:
        What is wrong, specific enough to act on.
    location:
        Where in the input, e.g. ``"operators[12]"`` or ``"edge
        gpu0-gpu1"``; empty when the finding is global.
    detail:
        Optional structured context (offending values, counts).
    """

    rule: str
    name: str
    severity: str
    message: str
    location: str = ""
    detail: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "name": self.name,
            "severity": self.severity,
            "message": self.message,
            "location": self.location,
            "detail": dict(self.detail),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Finding":
        return cls(
            rule=data["rule"],
            name=data["name"],
            severity=data["severity"],
            message=data["message"],
            location=data.get("location", ""),
            detail=dict(data.get("detail", {})),
        )

    def __str__(self) -> str:
        where = f"  {self.location}" if self.location else ""
        return f"{self.severity:<7} {self.rule} {self.name}{where}: {self.message}"


class Report:
    """An ordered list of findings with severity-level accessors."""

    def __init__(self, findings: Iterable[Finding] = ()):
        self.findings: List[Finding] = list(findings)

    # -- collection protocol ------------------------------------------
    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    def merge(self, other: "Report") -> "Report":
        self.findings.extend(other.findings)
        return self

    def __iter__(self) -> Iterator[Finding]:
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    # -- severity views -----------------------------------------------
    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def has_errors(self) -> bool:
        return any(f.severity == ERROR for f in self.findings)

    @property
    def ok(self) -> bool:
        return not self.findings

    def rule_ids(self) -> List[str]:
        """Distinct rule ids present, in first-seen order."""
        seen: Dict[str, None] = {}
        for finding in self.findings:
            seen.setdefault(finding.rule, None)
        return list(seen)

    # -- serialization -------------------------------------------------
    def to_dicts(self) -> List[dict]:
        return [f.to_dict() for f in self.findings]

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dicts(), indent=indent)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Report {len(self.findings)} findings, "
                f"{len(self.errors)} errors>")


class AnalysisError(RuntimeError):
    """Raised when error-severity findings block an operation (e.g. the
    pre-simulation task-graph check under ``--verify``)."""

    def __init__(self, report: Report, context: str = "analysis failed"):
        lines = [str(f) for f in report.errors] or [str(f) for f in report]
        super().__init__(context + ":\n" + "\n".join(lines))
        self.report = report
