"""Deep graph verifier and determinism race detector.

Tier A (static): the ``DV`` rules verify an extrapolation plan as a
whole — malformed tasks and dependencies, mismatched collectives and
memory-infeasible schedules — before it is instanced and a single event
is dispatched.  Tier B (dynamic): the ``RC`` detectors watch a run (its
dispatches, its finished task table, the global RNG states) and certify
the determinism contract (stable tie-breaking, happens-before
consistency, no global RNG draws), beside the ``SZ`` sanitizers'
physical invariants.

Entry points: :func:`verify_path` (the ``repro verify`` CLI),
:func:`verify_plan` (the one deep check, which ``TrioSim(verify=True)``
and the sweep's plan step call) / :func:`verify_config` /
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
]
