"""Deep graph verifier and determinism race detector.

Tier A (static): the ``DV`` rules verify whole execution DAGs — live
task graphs or cached extrapolation plans — for cycles, dead tasks,
mismatched collectives and memory-infeasible schedules before a single
event is dispatched.  Tier B (dynamic): the ``RC`` detectors ride the
engine/hook fast paths during a run and certify the determinism
contract (stable tie-breaking, happens-before consistency, no global
RNG draws), beside the ``SZ`` sanitizers' physical invariants.

Entry points: :func:`verify_path` (the ``repro verify`` CLI),
:func:`verify_taskgraph` / :func:`verify_plan` / :func:`verify_config` /
:func:`verify_spec` (library), and :class:`RuntimeSuite` (the runtime
tier).  See ``docs/verifier.md``.
"""

from repro.analysis.verifier.graph import CriticalPath, GraphView
from repro.analysis.verifier.races import RuntimeSuite
from repro.analysis.verifier.rules import VerifyContext
from repro.analysis.verifier.verify import (
    detect_kind,
    plan_summary,
    verify_config,
    verify_path,
    verify_plan,
    verify_spec,
    verify_taskgraph,
)

__all__ = [
    "CriticalPath",
    "GraphView",
    "RuntimeSuite",
    "VerifyContext",
    "detect_kind",
    "plan_summary",
    "verify_config",
    "verify_path",
    "verify_plan",
    "verify_spec",
    "verify_taskgraph",
]
