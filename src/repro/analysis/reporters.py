"""Reporters: render a :class:`~repro.analysis.findings.Report` for
humans (text) or machines (JSON / SARIF)."""

from __future__ import annotations

from typing import Optional

from repro.analysis.findings import Report
from repro.analysis.registry import DEFAULT_REGISTRY, RuleRegistry

#: SARIF 2.1.0 level per finding severity.
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def render_text(report: Report, source: str = "") -> str:
    """One line per finding plus a severity summary line.

    ``source`` (e.g. the linted file name) prefixes every location so
    multi-file output stays greppable.
    """
    lines = []
    for finding in report:
        where = finding.location
        if source:
            where = f"{source}:{where}" if where else source
        loc = f"  [{where}]" if where else ""
        lines.append(f"{finding.severity:<7} {finding.rule} "
                     f"{finding.name}{loc}: {finding.message}")
    errors, warnings = len(report.errors), len(report.warnings)
    infos = len(report) - errors - warnings
    if report.ok:
        lines.append(f"clean: no findings{f' in {source}' if source else ''}")
    else:
        summary = f"{errors} error(s), {warnings} warning(s)"
        if infos:
            summary += f", {infos} info"
        lines.append(summary)
    return "\n".join(lines)


def render_json(report: Report, source: str = "") -> str:
    """The findings as a JSON document with a summary header."""
    import json

    return json.dumps({
        "source": source,
        "errors": len(report.errors),
        "warnings": len(report.warnings),
        "findings": report.to_dicts(),
    }, indent=2)


def render_sarif(report: Report, source: str = "",
                 registry: Optional[RuleRegistry] = None) -> str:
    """The findings as a SARIF 2.1.0 document (one run, one tool).

    ``source`` becomes each result's artifact location; the repro-internal
    location (``task[...]``, ``collective[...]``) rides along as a logical
    location, and the finding's detail dict lands in ``properties`` — so
    CI annotators and SARIF viewers can ingest lint/verify output
    directly.
    """
    import json

    registry = registry or DEFAULT_REGISTRY
    rules_seen = {}
    results = []
    for finding in report:
        if finding.rule not in rules_seen:
            try:
                rule = registry.get(finding.rule)
                description = rule.description
            except KeyError:
                description = ""
            rules_seen[finding.rule] = {
                "id": finding.rule,
                "name": finding.name,
                "shortDescription": {"text": description or finding.name},
            }
        result = {
            "ruleId": finding.rule,
            "level": _SARIF_LEVELS.get(finding.severity, "warning"),
            "message": {"text": finding.message},
        }
        location: dict = {}
        if source:
            location["physicalLocation"] = {
                "artifactLocation": {"uri": source},
            }
        if finding.location:
            location["logicalLocations"] = [
                {"fullyQualifiedName": finding.location},
            ]
        if location:
            result["locations"] = [location]
        if finding.detail:
            result["properties"] = dict(finding.detail)
        results.append(result)
    return json.dumps({
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/"
                   "sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro",
                    "informationUri":
                        "https://github.com/triosim/repro",
                    "rules": list(rules_seen.values()),
                },
            },
            "results": results,
        }],
    }, indent=2)


def render_catalogue(registry: Optional[RuleRegistry] = None) -> str:
    """The rule catalogue (``repro verify --list-rules``)."""
    registry = registry or DEFAULT_REGISTRY
    lines = []
    for rule in registry.rules(enabled_only=False):
        flag = " " if registry.is_enabled(rule.id) else "x"
        lines.append(f"[{flag}] {rule.id}  {rule.name:<24} "
                     f"{rule.category:<9} {rule.severity:<8} "
                     f"{rule.description}")
    return "\n".join(lines)
