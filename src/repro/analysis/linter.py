"""The shallow lint tier: one pass per input kind.

* :func:`lint_trace` — a :class:`Trace`, trace dict, or trace JSON path;
* :func:`lint_config` — a :class:`SimulationConfig` (plus the trace for
  cross-checks like stage counts and shardability);
* :func:`lint_plan` — a pre-built extrapolation plan;
* :func:`lint_spec` — a sweep spec: lints the spec's trace and every
  expanded point.

Every function returns a :class:`~repro.analysis.findings.Report`; the
caller decides what severity blocks (the CLI and the sweep service block
on ``error``).  The deep verifier (:mod:`repro.analysis.verifier`) runs
these first, and its :func:`~repro.analysis.verifier.verify_path` is the
file-level front end (``repro verify``).
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
            return registry.emit(report, "TR001", error)
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
            return registry.emit(report, "CF011", str(exc))
    ctx = ConfigContext.build(config, trace)
    return registry.run_category("config", ctx, report)


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
def lint_plan(plan: Any, config: SimulationConfig,
              trace: Optional[Trace] = None,
              registry: Optional[RuleRegistry] = None) -> Report:
    """Run every plan rule against a pre-built extrapolation plan.

    *trace* is the trace the plan would execute against.  It is
    cross-GPU rescaled to ``config.gpu`` through the same memoized
    :func:`~repro.extrapolator.optime.rescale` that
    :class:`~repro.core.simulator.TrioSim` uses (a no-op for an already
    rescaled trace), so the expected plan key is derived from what the
    extrapolator would actually consume.  Without a trace the key check
    (PL001) is skipped and only structural rules run.
    """
    registry = registry or DEFAULT_REGISTRY
    if trace is not None:
        from repro.extrapolator.optime import rescale

        trace = rescale(trace, config.gpu)
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
    return _lint_spec(source, base_dir, registry or DEFAULT_REGISTRY)[0]


def _lint_spec(source: Union[SweepSpec, dict, str, Path],
               base_dir: Union[str, Path, None],
               registry: RuleRegistry
               ) -> Tuple[Report, Optional[SweepSpec], Optional[Trace]]:
    """:func:`lint_spec`, also returning the parsed spec and its trace
    (``None`` where SP001/SP002 fired) so the deep tier reuses them."""
    from repro.service.spec import SweepSpec

    report = Report()
    if isinstance(source, SweepSpec):
        spec = source
    else:
        if isinstance(source, (str, Path)):
            data, error = _load_json(source)
            if data is None:
                return registry.emit(report, "SP001", error), None, None
            if base_dir is None:
                base_dir = Path(source).parent
        else:
            data = source
        try:
            spec = SweepSpec.from_dict(data)
        except (ValueError, TypeError) as exc:
            return registry.emit(report, "SP001", str(exc)), None, None

    trace = None
    try:
        trace = spec.load_trace(base_dir=base_dir)
    except Exception as exc:
        registry.emit(report, "SP002", f"cannot load the spec's trace: {exc}")
    if trace is not None:
        report.merge(_prefixed(lint_trace(trace, registry), "trace"))

    seen = set()
    for label, config in spec.expand():
        for f in _prefixed(lint_config(config, trace, registry), label):
            key = (f.rule, f.message)
            if key not in seen:
                seen.add(key)
                report.add(f)
    return report, spec, trace


# Every rule module registers itself on import; walking the package here
# (instead of hand-listing imports) is what lets check_catalogue assert
# completeness — a forgotten module fails the catalogue test, rather than
# silently dropping its rules from --list-rules and the linter.
load_rules()
