"""Performance lint rules (``PF``-series).

Configs are rarely *wrong* in a way that changes numbers but often wrong
in a way that wastes wall-clock.  The ``PF`` rules surface avoidable
performance hazards — starting with runs that forfeit steady-state
iteration folding (see ``docs/performance.md``) for reasons the user can
fix, which on long runs is the difference between simulating 2 iterations
and simulating 50.

These run in the ``config`` lint pass and receive the same
:class:`~repro.analysis.config_rules.ConfigContext` as the ``CF`` rules.
All findings are warnings: an unfoldable run is slow, not incorrect.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.config_rules import ConfigContext
from repro.analysis.registry import Emitter, rule
from repro.core.fold import FOLD_MIN_FOLDED, config_fold_reason
from repro.network.routing import get_routing_strategy, routing_names


def _fault_horizon(faults) -> Optional[float]:
    """When every injected fault's effect provably ends: the latest end
    time.  ``None`` when the spec has unbounded effects (device failures
    replay from checkpoints; periodic checkpointing stalls forever)."""
    if faults.failures or faults.checkpoint_interval is not None \
            or faults.chaos_kill_at is not None:
        return None
    ends = [s.end for s in faults.stragglers]
    ends.extend(f.end for f in faults.link_faults)
    return max(ends) if ends else None


@rule("PF001", "fold-ineligible", "config", "warning",
      description="Multi-iteration runs should qualify for steady-state "
                  "iteration folding; warn when one is disqualified for "
                  "an avoidable reason (folding disabled, a bounded fault "
                  "window, or dynamic routing where a static strategy "
                  "would do).")
def check_fold_eligibility(ctx: ConfigContext, emit: Emitter) -> None:
    config = ctx.config
    if config.iterations < config.fold_warmup + FOLD_MIN_FOLDED:
        return  # nothing worth folding; the exact path is the right path
    tail = config.iterations - config.fold_warmup
    reason = config_fold_reason(config)
    if reason == "disabled":
        emit(
            f"folding is disabled (fold=False / --no-fold) on a "
            f"{config.iterations}-iteration run: the {tail} steady-state "
            f"tail iteration(s) will be re-simulated event-by-event; "
            f"re-enable folding unless exact per-event behavior is needed "
            f"(see docs/performance.md)",
            location="fold",
        )
        return
    if reason == "faults":
        horizon = _fault_horizon(config.faults)
        if horizon is not None:
            emit(
                f"a bounded fault spec (last fault window ends at "
                f"t={horizon:g}s) disqualifies all {config.iterations} "
                f"iterations from folding; if the steady tail beyond the "
                f"faults matters, simulate the faulted prefix and the "
                f"clean remainder as separate runs (see "
                f"docs/performance.md)",
                location="faults", horizon=horizon,
            )
        return
    # The same test as the fold gate: a strategy engages on a prebuilt
    # graph or a multipath named topology, and a dynamic one rules out
    # folding.  Unknown names are NW003's error.
    if not (ctx.prebuilt or ctx.multipath) \
            or config.routing not in routing_names() \
            or not get_routing_strategy(config.routing).dynamic:
        return
    where = ("a prebuilt topology graph" if ctx.prebuilt
             else f"multipath topology {ctx.topology_name!r}")
    emit(
        f"dynamic routing {config.routing!r} on {where} disqualifies "
        f"this {config.iterations}-iteration run from folding "
        f"(per-flow path choices depend on instantaneous congestion); "
        f"'ecmp' keeps multipath load-balancing and stays foldable",
        location="routing",
    )
