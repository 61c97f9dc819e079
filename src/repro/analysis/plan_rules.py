"""Plan rules: structural checks on a pre-built extrapolation plan.

:func:`~repro.analysis.verifier.verify_plan` runs the plan pass before
the deep verifier, so config and trace verification and the sweep's
``--verify`` gate all check every plan they build.
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
