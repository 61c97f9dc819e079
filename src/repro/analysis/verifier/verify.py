"""Verification orchestration: the one analysis front end.

Two-tier layering on top of the lint passes: every ``verify_*`` function
first runs the relevant shallow lint (same registry, same gates), then —
when the input survives — lowers the execution DAG to a
:class:`~repro.analysis.verifier.graph.GraphView` and runs the deep
``DV`` rules over the whole graph.

* :func:`verify_taskgraph` — a live, not-yet-run
  :class:`~repro.core.taskgraph.TaskGraphSimulator` (the ``--verify``
  pre-run gate inside :class:`~repro.core.simulator.TrioSim`);
* :func:`verify_plan` — a recorded
  :class:`~repro.core.plan.ExtrapolationPlan`;
* :func:`verify_config` — a ``(config, trace)`` pair: config lint, then
  build the plan and verify it;
* :func:`verify_spec` — a sweep spec: full spec lint, then one deep
  verification per *distinct plan key* among the expanded points;
* :func:`verify_path` — auto-detects what a JSON file is and dispatches
  (the ``repro verify`` CLI, the only file-level entry point).

Every function returns a :class:`~repro.analysis.findings.Report`; a
clean graph verifies with zero findings.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Set, Tuple, Union

import networkx as nx

from repro.analysis import linter as _linter
from repro.analysis.findings import Report
from repro.analysis.registry import DEFAULT_REGISTRY, RuleRegistry
from repro.analysis.verifier.graph import GraphView
from repro.analysis.verifier.rules import VerifyContext
from repro.core.config import SimulationConfig
from repro.trace.trace import Trace


def _run_verify(view: GraphView, config: Optional[SimulationConfig],
                topology: Optional[nx.Graph],
                registry: RuleRegistry) -> Report:
    ctx = VerifyContext(view, config=config, topology=topology)
    return registry.run_category("verify", ctx, Report())


# ----------------------------------------------------------------------
# Live task graphs and plans
# ----------------------------------------------------------------------
def verify_taskgraph(sim: Any, topology: Optional[nx.Graph] = None,
                     config: Optional[SimulationConfig] = None,
                     registry: Optional[RuleRegistry] = None) -> Report:
    """Deep-verify a live (not yet run) task-graph simulator."""
    registry = registry or DEFAULT_REGISTRY
    return _run_verify(GraphView.from_simulator(sim), config, topology,
                       registry)


def verify_plan(plan: Any, config: Optional[SimulationConfig] = None,
                registry: Optional[RuleRegistry] = None) -> Report:
    """Deep-verify a recorded extrapolation plan.

    With a *config*, slack annotations use its link parameters and DV005
    checks peaks against its target GPU; the findings themselves depend
    only on the plan (two configs sharing a plan key share a verdict).
    """
    registry = registry or DEFAULT_REGISTRY
    return _run_verify(GraphView.from_plan(plan), config, None, registry)


def plan_summary(plan: Any,
                 config: Optional[SimulationConfig] = None) -> dict:
    """Whole-graph annotation block of *plan* (sizes, critical path,
    peak transfer footprint) — the CLI's summary line."""
    return GraphView.from_plan(plan).summary(config)


def _build_verified(sim: Any, config: SimulationConfig,
                    registry: RuleRegistry,
                    plan_cache: Any = None) -> Tuple[Report, Any]:
    """Build *sim*'s plan (through *plan_cache* when given, so a later
    simulation reuses it) and deep-verify it.

    Returns ``(report, plan)``.  A config that cannot even build a graph
    yields a DV001 finding naming the failure, and no plan.
    """
    try:
        if plan_cache is not None:
            plan, _source = plan_cache.get_or_build(sim.plan_key(),
                                                    sim.build_plan)
        else:
            plan = sim.build_plan()
    except Exception as exc:
        return registry.emit(Report(), "DV001",
                             f"cannot build the task graph: {exc}"), None
    return verify_plan(plan, config=config, registry=registry), plan


# ----------------------------------------------------------------------
# Configs (build the plan, then verify it)
# ----------------------------------------------------------------------
def verify_config(config: Union[SimulationConfig, dict],
                  trace: Optional[Trace] = None,
                  registry: Optional[RuleRegistry] = None,
                  plan_cache: Any = None) -> Report:
    """Config lint, then build this point's plan and deep-verify it.

    Mirrors :func:`~repro.analysis.linter.lint_config` but adds the deep
    tier when a *trace* is available: the extrapolation plan is built
    (through *plan_cache* when given) and every DV rule runs over it.
    """
    registry = registry or DEFAULT_REGISTRY
    report = _linter.lint_config(config, trace, registry)
    if report.has_errors or trace is None:
        return report
    if isinstance(config, dict):
        config = SimulationConfig.from_dict(config)
    from repro.core.simulator import TrioSim

    sim = TrioSim(trace, config, record_timeline=False,
                  plan_cache=plan_cache)
    return report.merge(_build_verified(sim, config, registry,
                                        plan_cache)[0])


# ----------------------------------------------------------------------
# Sweep specs
# ----------------------------------------------------------------------
def verify_spec(source: Any, base_dir: Union[str, Path, None] = None,
                registry: Optional[RuleRegistry] = None) -> Report:
    """Full spec lint, then one deep verification per distinct plan.

    The spec is parsed and its trace loaded (or collected) once, for
    both tiers.  Points differing only in execute-time parameters
    (topology, link bandwidth/latency, routing, faults, iterations)
    share an extrapolation plan, so a 16-point network sweep typically
    deep-verifies one graph, not sixteen.
    """
    registry = registry or DEFAULT_REGISTRY
    report, spec, trace = _linter._lint_spec(source, base_dir, registry)
    if report.has_errors or trace is None:
        return report
    from repro.core.simulator import TrioSim

    seen: Set[str] = set()
    for label, config in spec.expand():
        sim = TrioSim(trace, config, record_timeline=False)
        key = sim.plan_key()
        if key not in seen:
            seen.add(key)
            deep, _plan = _build_verified(sim, config, registry)
            report.merge(_linter._prefixed(deep, label))
    return report


# ----------------------------------------------------------------------
# Files (the CLI entry point)
# ----------------------------------------------------------------------
def detect_kind(data: dict) -> str:
    """Classify a parsed JSON document as trace, plan, spec, faults, or
    config."""
    if "operators" in data and "tensors" in data:
        return "trace"
    if "key" in data and ("columns" in data or "tasks" in data):
        return "plan"  # "tasks": a version-1 plan, rejected by schema
    if "axes" in data or "trace" in data or "model" in data or "base" in data:
        return "spec"
    if ("stragglers" in data or "link_faults" in data or "failures" in data) \
            and "parallelism" not in data:
        return "faults"
    return "config"


#: The rule a file is reported under, per input kind, when it cannot be
#: read or does not deserialize.  An unreadable file of unknown kind is
#: reported as a config.
_SCHEMA_RULE = {"trace": "TR001", "spec": "SP001", "plan": "DV001",
                "faults": "CF011", "config": "CF011", "auto": "CF011"}


def verify_path(path: Union[str, Path], kind: str = "auto",
                config: Optional[SimulationConfig] = None,
                registry: Optional[RuleRegistry] = None
                ) -> Tuple[Report, str, dict]:
    """Verify a JSON file, auto-detecting its kind.

    Returns ``(report, kind, info)``; ``info`` may carry a ``"summary"``
    block (graph sizes, critical-path length, peak transfer footprint)
    for single-graph inputs.  For trace inputs, *config* describes the
    simulation whose graph is verified; without one only the shallow
    trace lint runs.
    """
    registry = registry or DEFAULT_REGISTRY
    report = Report()
    info: dict = {}
    data, error = _linter._load_json(path)
    if data is None:
        registry.emit(report, _SCHEMA_RULE[kind], error)
        return report, (kind if kind != "auto" else "unknown"), info
    if kind == "auto":
        kind = detect_kind(data)

    if kind == "spec":
        return (verify_spec(data, base_dir=Path(path).parent,
                            registry=registry), kind, info)

    if kind == "plan":
        from repro.core.plan import ExtrapolationPlan

        try:
            plan = ExtrapolationPlan.from_dict(data)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            registry.emit(report, _SCHEMA_RULE[kind],
                          f"plan does not deserialize: {exc}")
            return report, kind, info
        # No trace: PL001 (key mismatch) skips itself, PL002 still runs.
        report = _linter.lint_plan(plan, config or SimulationConfig(),
                                   registry=registry)
        report.merge(verify_plan(plan, config=config, registry=registry))
        info["summary"] = plan_summary(plan, config)
        return report, kind, info

    if kind == "faults":
        try:
            inferred = _faults_config(data)
        except (ValueError, TypeError, KeyError) as exc:
            registry.emit(report, _SCHEMA_RULE[kind],
                          f"fault spec does not deserialize: {exc}")
            return report, kind, info
        return (_linter.lint_config(inferred, registry=registry), kind,
                info)

    if kind == "trace":
        report = _linter.lint_trace(data, registry)
        if report.has_errors or config is None:
            return report, kind, info
        try:
            trace = Trace.from_dict(data)
        except Exception as exc:
            registry.emit(report, _SCHEMA_RULE[kind],
                          f"trace does not deserialize: {exc}")
            return report, kind, info
        report.merge(_linter.lint_config(config, trace, registry))
        if report.has_errors:
            return report, kind, info
        from repro.core.simulator import TrioSim

        sim = TrioSim(trace, config, record_timeline=False)
        deep, plan = _build_verified(sim, config, registry)
        report.merge(deep)
        if plan is not None:
            info["summary"] = plan_summary(plan, config)
        return report, kind, info

    # config
    report = verify_config(data, trace=None, registry=registry)
    return report, kind, info


def _faults_config(data: dict) -> SimulationConfig:
    """A minimal config a standalone fault spec can be linted against.

    GPU count is inferred from the highest ``gpuN`` index the spec
    references (at least 2), so device/link targets resolve against the
    same ring topology ``repro simulate --faults`` would build.
    """
    from repro.faults.spec import FaultSpec, parse_link

    spec = FaultSpec.from_dict(data)
    names = [straggler.gpu for straggler in spec.stragglers]
    for failure in spec.failures:
        if "-" in failure.device:
            try:
                names.extend(parse_link(failure.device))
            except ValueError:
                pass
        else:
            names.append(failure.device)
    for fault in spec.link_faults:
        try:
            names.extend(parse_link(fault.link))
        except ValueError:
            pass
    indices = [int(name[3:]) for name in names
               if name.startswith("gpu") and name[3:].isdigit()]
    num_gpus = max(max(indices) + 1 if indices else 0, 2)
    return SimulationConfig(parallelism="ddp", num_gpus=num_gpus,
                            faults=spec)
