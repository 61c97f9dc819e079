"""Plan rules: structural checks on a pre-built extrapolation plan.

``repro verify`` runs the plan pass on a plan file before the deep
verifier (:func:`~repro.analysis.verifier.verify_plan`).  The plan key
needs no rule: :meth:`~repro.core.plan.PlanCache.get_or_build` checks
it on every lookup.
"""

from __future__ import annotations

from repro.analysis.registry import Emitter, rule
from repro.core.plan import ExtrapolationPlan


@rule(id="PL002", name="plan-empty", category="plan", severity="warning",
      description="A plan with zero tasks simulates nothing; usually a "
                  "sign the extrapolator recorded into the wrong target.")
def plan_empty(plan: ExtrapolationPlan, emit: Emitter) -> None:
    if len(plan) == 0:
        emit("plan contains no tasks")
