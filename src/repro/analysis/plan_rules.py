"""Plan rules: is a pre-built extrapolation plan safe to execute here?

A cached or user-supplied :class:`~repro.core.plan.ExtrapolationPlan` is
only valid under the (trace, config) pair it was built for — executing a
plan keyed to different parallelism knobs or a different trace silently
produces a simulation of the *wrong* system.  The plan pass runs before
:meth:`TrioSim.run` executes any supplied plan, and ``repro verify`` runs
it (without a trace, so PL001 is skipped) on a plan file.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.registry import Emitter, rule
from repro.core.config import SimulationConfig
from repro.core.plan import (
    PLAN_SCHEMA_VERSION,
    ExtrapolationPlan,
    plan_invariants,
    plan_key,
)
from repro.trace.trace import Trace


class PlanContext:
    """Everything the plan rules inspect: the plan, the config it is
    about to execute under, and the *prepared* trace."""

    def __init__(self, plan: ExtrapolationPlan, config: SimulationConfig,
                 trace: Optional[Trace]):
        self.plan = plan
        self.config = config
        self.trace = trace
        self.expected_key = (plan_key(trace, config)
                             if trace is not None else None)


@rule(id="PL001", name="plan-config-mismatch", category="plan",
      severity="error",
      description="A pre-built plan's key must match the (trace, config) "
                  "it executes under; a mismatched plan simulates the "
                  "wrong system.")
def plan_config_mismatch(ctx: PlanContext, emit: Emitter) -> None:
    if ctx.expected_key is None or ctx.plan.key == ctx.expected_key:
        return
    emit(
        f"plan was built for key {ctx.plan.key[:12]}… but this "
        f"(trace, config) expects {ctx.expected_key[:12]}…; the trace "
        f"content or an iteration-invariant knob "
        f"(parallelism/num_gpus/batch/…) differs from what the plan "
        f"was built with",
        plan_key=ctx.plan.key,
        expected_key=ctx.expected_key,
        expected_invariants=plan_invariants(ctx.config),
        plan_schema=PLAN_SCHEMA_VERSION,
    )


@rule(id="PL002", name="plan-empty", category="plan", severity="warning",
      description="A plan with zero tasks simulates nothing; usually a "
                  "sign the extrapolator recorded into the wrong target.")
def plan_empty(ctx: PlanContext, emit: Emitter) -> None:
    if len(ctx.plan) == 0:
        emit("plan contains no tasks")
