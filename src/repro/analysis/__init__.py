"""Static analysis, deep graph verification, and runtime sanitizers.

TrioSim's accuracy rests on invariants the simulation engine itself never
checks: traces must form acyclic operator/tensor graphs with consistent
byte counts, configs must describe connected topologies with plausible
link parameters, extrapolated task graphs must be deadlock-free, and the
flow network must conserve link capacity.  This package checks all of
them:

* a **rule framework** — :class:`Finding` / :class:`Report` /
  :class:`RuleRegistry` with stable rule ids, enable/disable, a
  self-asserting catalogue (:func:`check_catalogue`), and text + JSON +
  SARIF reporters;
* **static lint passes** (the shallow tier) — :func:`lint_trace`,
  :func:`lint_config`, :func:`lint_spec`, :func:`lint_plan`;
* a **deep graph verifier** (:mod:`repro.analysis.verifier`) —
  :func:`verify_plan` / :func:`verify_config` / :func:`verify_spec` run
  the shallow tier, then whole-graph ``DV`` rules (structural and
  dependency checks, cross-rank collective matching, static peak-memory
  bounding, critical-path/slack annotation) over extrapolation plans
  (every ``--verify`` gate runs :func:`verify_plan`);
  :func:`verify_path` is the one file-level front end (the
  ``repro verify`` CLI);
* the verifier's **runtime tier** — :class:`RuntimeSuite` attaches the
  sanitizers (``SZ`` rules: time monotonicity, link-capacity
  conservation, event-heap hygiene, ...) and the determinism race
  detectors (``RC`` rules: tie-order races, happens-before violations,
  global-RNG drift) to a running simulation as plain observer callables
  (the ``--verify`` flag).

See ``docs/linting.md`` for the lint catalogue and ``docs/verifier.md``
for the verifier rules and the determinism contract.
"""

from repro.analysis.findings import (
    ERROR,
    INFO,
    SEVERITIES,
    WARNING,
    AnalysisError,
    Finding,
    Report,
)
from repro.analysis.registry import (
    DEFAULT_REGISTRY,
    RULE_SERIES,
    Rule,
    RuleRegistry,
    check_catalogue,
    load_rules,
)
from repro.analysis.linter import (
    lint_config,
    lint_plan,
    lint_spec,
    lint_trace,
)
from repro.analysis.reporters import (
    render_catalogue,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.sanitizers import (
    AllocatorWarningSanitizer,
    HeapLeakSanitizer,
    LinkCapacitySanitizer,
    TimeMonotonicSanitizer,
)
from repro.analysis.verifier import (
    GraphView,
    RuntimeSuite,
    detect_kind,
    plan_summary,
    verify_config,
    verify_path,
    verify_plan,
    verify_spec,
)

__all__ = [
    "ERROR",
    "INFO",
    "RULE_SERIES",
    "SEVERITIES",
    "WARNING",
    "AllocatorWarningSanitizer",
    "AnalysisError",
    "DEFAULT_REGISTRY",
    "Finding",
    "GraphView",
    "HeapLeakSanitizer",
    "LinkCapacitySanitizer",
    "Report",
    "Rule",
    "RuleRegistry",
    "RuntimeSuite",
    "TimeMonotonicSanitizer",
    "check_catalogue",
    "detect_kind",
    "lint_config",
    "lint_plan",
    "lint_spec",
    "lint_trace",
    "load_rules",
    "plan_summary",
    "render_catalogue",
    "render_json",
    "render_sarif",
    "render_text",
    "verify_config",
    "verify_path",
    "verify_plan",
    "verify_spec",
]
