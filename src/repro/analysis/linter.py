"""Lint orchestration: one entry point per input kind.

* :func:`lint_trace` — a :class:`Trace`, trace dict, or trace JSON path;
* :func:`lint_config` — a :class:`SimulationConfig` (plus the trace for
  cross-checks like stage counts and shardability);
* :func:`lint_spec` — a sweep spec: lints the spec's trace and every
  expanded point;
* :func:`lint_path` — auto-detects what a JSON file is and dispatches.

Every function returns a :class:`~repro.analysis.findings.Report`; the
caller decides what severity blocks (the CLI and the sweep service block
on ``error``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional, Tuple, Union

from repro.analysis.plan_rules import PlanContext
from repro.analysis.config_rules import ConfigContext
from repro.analysis.findings import Finding, Report
from repro.analysis.registry import (
    DEFAULT_REGISTRY,
    Rule,
    RuleRegistry,
    load_rules,
)
from repro.analysis.trace_rules import TraceContext
from repro.core.config import SimulationConfig
from repro.trace.trace import Trace

if TYPE_CHECKING:  # deferred: service.runner itself lints configs
    from repro.service.spec import SweepSpec

DEFAULT_REGISTRY.register(Rule(
    id="SP001", name="spec-schema", category="spec", severity="error",
    description="A sweep spec must parse and every axis combination must "
                "build a valid config.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SP002", name="spec-trace-unavailable", category="spec",
    severity="error",
    description="The spec's input trace must load (or collect) cleanly.",
))
DEFAULT_REGISTRY.register(Rule(
    id="CF011", name="config-schema", category="config", severity="error",
    description="A serialized config must deserialize through "
                "SimulationConfig.from_dict.",
))
DEFAULT_REGISTRY.register(Rule(
    id="PL003", name="plan-schema", category="plan", severity="error",
    description="A serialized plan must deserialize through "
                "ExtrapolationPlan.from_dict with in-range backward "
                "dependency indices.",
))
# Declarative (fn=None): emitted by repro.service.journal.check_resume
# when a sweep resumes from a write-ahead journal.
DEFAULT_REGISTRY.register(Rule(
    id="SV001", name="resume-journal-mismatch", category="spec",
    severity="error",
    description="A resume journal's sweep fingerprint (trace digest, "
                "point keys and order, timeline flag, journal schema) "
                "must match the sweep being resumed.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SV002", name="resume-deadline-too-short", category="spec",
    severity="warning",
    description="The configured hard deadline should not be shorter than "
                "the slowest point runtime observed in the resume "
                "journal — pending points of that runtime class would "
                "time out instead of completing.",
))


def _finding(registry: RuleRegistry, rule_id: str, message: str,
             location: str = "") -> Finding:
    rule = registry.get(rule_id)
    return Finding(rule=rule.id, name=rule.name, severity=rule.severity,
                   message=message, location=location)


def _load_json(source: Union[str, Path]) -> Tuple[Optional[dict], str]:
    """Parse a JSON file; returns ``(data, error_message)``."""
    path = Path(source)
    try:
        return json.loads(path.read_text()), ""
    except OSError as exc:
        return None, f"cannot read {path}: {exc}"
    except json.JSONDecodeError as exc:
        return None, f"{path} is not valid JSON: {exc}"


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
def lint_trace(source: Union[Trace, dict, str, Path],
               registry: Optional[RuleRegistry] = None) -> Report:
    """Run every trace rule against *source*."""
    registry = registry or DEFAULT_REGISTRY
    report = Report()
    if isinstance(source, Trace):
        data = source.to_dict()
    elif isinstance(source, (str, Path)):
        data, error = _load_json(source)
        if data is None:
            report.add(_finding(registry, "TR001", error))
            return report
    else:
        data = source  # dicts, plus anything TR001 should reject
    ctx = TraceContext.build(data)
    return registry.run_category("trace", ctx, report)


# ----------------------------------------------------------------------
# Configs
# ----------------------------------------------------------------------
def lint_config(config: Union[SimulationConfig, dict],
                trace: Optional[Trace] = None,
                registry: Optional[RuleRegistry] = None) -> Report:
    """Run every config rule against *config* (dicts are deserialized
    first; a failure there is itself a finding)."""
    registry = registry or DEFAULT_REGISTRY
    report = Report()
    if isinstance(config, dict):
        try:
            config = SimulationConfig.from_dict(config)
        except (ValueError, TypeError) as exc:
            report.add(_finding(registry, "CF011", str(exc)))
            return report
    ctx = ConfigContext.build(config, trace)
    return registry.run_category("config", ctx, report)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def lint_plan(plan: Any, config: SimulationConfig,
              trace: Optional[Trace] = None, prepared: bool = False,
              registry: Optional[RuleRegistry] = None) -> Report:
    """Run every plan rule against a pre-built extrapolation plan.

    *trace* is the trace the plan would execute against; unless
    ``prepared`` is true it is first cross-GPU rescaled to ``config.gpu``
    — the same preparation :class:`~repro.core.simulator.TrioSim` applies
    — so the expected plan key is derived from what the extrapolator
    would actually consume.  Without a trace the key check (PL001) is
    skipped and only structural rules run.
    """
    registry = registry or DEFAULT_REGISTRY
    if trace is not None and not prepared:
        target = config.gpu
        if target is not None and target.upper() != trace.gpu_name.upper():
            from repro.perfmodel.scaling import CrossGPUScaler

            trace = CrossGPUScaler.between(
                trace.gpu_name, target).convert_trace(trace)
    ctx = PlanContext(plan, config, trace)
    return registry.run_category("plan", ctx, Report())


# ----------------------------------------------------------------------
# Sweep specs
# ----------------------------------------------------------------------
def _prefixed(report: Report, prefix: str) -> Report:
    out = Report()
    for f in report:
        location = f"{prefix}:{f.location}" if f.location else prefix
        out.add(Finding(rule=f.rule, name=f.name, severity=f.severity,
                        message=f.message, location=location,
                        detail=f.detail))
    return out


def lint_spec(source: Union[SweepSpec, dict, str, Path],
              base_dir: Union[str, Path, None] = None,
              registry: Optional[RuleRegistry] = None) -> Report:
    """Lint a sweep spec: the spec itself, its trace, and every point.

    Per-point config findings keep their ``CF`` rule ids with the point
    label prefixed to the location; identical findings repeated across
    points are deduplicated.
    """
    from repro.service.spec import SweepSpec

    registry = registry or DEFAULT_REGISTRY
    report = Report()
    if isinstance(source, SweepSpec):
        spec = source
    else:
        if isinstance(source, (str, Path)):
            data, error = _load_json(source)
            if data is None:
                report.add(_finding(registry, "SP001", error))
                return report
            if base_dir is None:
                base_dir = Path(source).parent
        else:
            data = source
        try:
            spec = SweepSpec.from_dict(data)
        except (ValueError, TypeError) as exc:
            report.add(_finding(registry, "SP001", str(exc)))
            return report

    trace = None
    try:
        trace = spec.load_trace(base_dir=base_dir)
    except Exception as exc:
        report.add(_finding(registry, "SP002",
                            f"cannot load the spec's trace: {exc}"))
    if trace is not None:
        report.merge(_prefixed(lint_trace(trace, registry), "trace"))

    seen = set()
    for label, config in spec.expand():
        for f in _prefixed(lint_config(config, trace, registry), label):
            key = (f.rule, f.message)
            if key not in seen:
                seen.add(key)
                report.add(f)
    return report


# ----------------------------------------------------------------------
# Auto-detection
# ----------------------------------------------------------------------
def detect_kind(data: dict) -> str:
    """Classify a parsed JSON document as trace, plan, spec, faults, or
    config."""
    if "operators" in data and "tensors" in data:
        return "trace"
    if "tasks" in data and "key" in data:
        return "plan"
    if "axes" in data or "trace" in data or "model" in data or "base" in data:
        return "spec"
    if ("stragglers" in data or "link_faults" in data or "failures" in data) \
            and "parallelism" not in data:
        return "faults"
    return "config"


def lint_path(path: Union[str, Path], kind: str = "auto",
              registry: Optional[RuleRegistry] = None) -> Tuple[Report, str]:
    """Lint a JSON file, auto-detecting its kind; returns (report, kind)."""
    registry = registry or DEFAULT_REGISTRY
    data, error = _load_json(path)
    if data is None:
        report = Report()
        rule_id = {"trace": "TR001", "spec": "SP001"}.get(kind, "CF011")
        report.add(_finding(registry, rule_id, error))
        return report, kind if kind != "auto" else "unknown"
    if kind == "auto":
        kind = detect_kind(data)
    if kind == "trace":
        return lint_trace(data, registry), kind
    if kind == "spec":
        return lint_spec(data, base_dir=Path(path).parent,
                         registry=registry), kind
    if kind == "plan":
        from repro.core.plan import ExtrapolationPlan

        report = Report()
        try:
            plan = ExtrapolationPlan.from_dict(data)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            report.add(_finding(registry, "PL003",
                                f"plan does not deserialize: {exc}"))
            return report, kind
        if len(plan) == 0:
            report.add(_finding(registry, "PL002", "plan contains no tasks"))
        return report, kind
    if kind == "faults":
        from repro.analysis.verifier.verify import _faults_config

        report = Report()
        try:
            inferred = _faults_config(data)
        except (ValueError, TypeError, KeyError) as exc:
            report.add(_finding(registry, "CF011",
                                f"fault spec does not deserialize: {exc}"))
            return report, kind
        return lint_config(inferred, registry=registry), kind
    return lint_config(data, registry=registry), kind


# Every rule module registers itself on import; walking the package here
# (instead of hand-listing imports) is what lets check_catalogue assert
# completeness — a forgotten module fails the catalogue test, rather than
# silently dropping its rules from --list-rules and the linter.
load_rules()
