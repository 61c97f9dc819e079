"""Steady-state iteration folding: eligibility and the fold arithmetic.

Multi-iteration training is periodic by construction: the inter-iteration
fence forces every task of iteration *k* to finish before any task of
iteration *k+1* starts, so each post-fence iteration replays the previous
one's event schedule shifted by one iteration period.  When nothing
time-dependent crosses the fence — no fault windows, no congestion-
adaptive routing state, no runtime observers — simulating the tail
event-by-event recomputes a schedule that is already known.

Folding exploits this: simulate ``fold_warmup`` warm-up iterations
event-by-event, check the last two warm-up durations agree within
``fold_tolerance`` (relative), then extend the remaining ``N - warmup``
iterations algebraically — shift the task/flow timelines by the steady-
state period and scale the additive counters.  The fold is *bounded-
error*, not bit-exact: per-iteration durations of a fully simulated run
drift at machine-epsilon scale (``(t + a) + b != t + (a + b)``; observed
relative drift is ~1e-15 on the acceptance workloads, see
``docs/performance.md``), and the folded tail reproduces the unfolded
schedule to the same order.

This module owns the *decision*: which runs may fold, and why a run may
not.  The static (config-only) half is shared with lint rule PF001; the
dynamic half additionally inspects the built network and the simulator's
runtime observers.  The arithmetic itself lives in
:meth:`repro.core.simulator.TrioSim._run_folded`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.network.flow import FlowNetwork

#: Folding engages only when it would skip at least this many iterations;
#: below the threshold the exact event-by-event path is used (and stays
#: bit-identical to builds that predate folding).
FOLD_MIN_FOLDED = 2


@dataclass(frozen=True)
class FoldDecision:
    """Whether one run may fold, and the reason when it may not.

    ``status`` is the string surfaced in ``SimulationResult.profile``
    under ``fold_status``: ``"eligible"`` before the run (rewritten to
    ``"folded"`` / ``"not-steady"`` by the execution), or
    ``"off:<reason>"`` for ineligible runs.
    """

    eligible: bool
    reason: str = ""

    @property
    def status(self) -> str:
        return "eligible" if self.eligible else f"off:{self.reason}"


def config_fold_reason(config) -> Optional[str]:
    """The static (config-only) fold disqualifier, or ``None``.

    Shared by the simulator's eligibility gate and lint rule PF001 so
    the two can never disagree about what a config alone rules out:

    * ``disabled`` — folding switched off (``fold=False`` / ``--no-fold``);
    * ``few-iterations`` — fewer than ``fold_warmup + FOLD_MIN_FOLDED``
      iterations, so there is nothing worth folding;
    * ``faults`` — a non-empty fault spec perturbs the schedule
      time-dependently (a straggler window open during iteration 3 but
      not 4 breaks periodicity).
    """
    if not config.fold:
        return "disabled"
    if config.iterations < config.fold_warmup + FOLD_MIN_FOLDED:
        return "few-iterations"
    if config.faults is not None and not config.faults.is_empty:
        return "faults"
    return None


def fold_decision(config, network=None, verify: bool = False) -> FoldDecision:
    """Decide whether a :class:`~repro.core.simulator.TrioSim` run folds.

    Beyond the static config gate (:func:`config_fold_reason`), a run is
    disqualified by the network it was built with, and by anything that
    must observe every dispatched event:

    * ``custom-network`` — a network that is not a :class:`FlowNetwork`
      (a custom model plugged into TrioSim, such as the photonic one)
      offers no counter-extension contract
      (:meth:`FlowNetwork.stats_snapshot`).
    * ``dynamic-routing`` — the *engaged* routing strategy is dynamic
      (flowlet / congestion-adaptive): per-flow path choices depend on
      instantaneous congestion state, which the fence does not reset.
      Static strategies (``shortest``, ``ecmp``) choose per pair, not
      per instant, and stay eligible — as do dynamic strategies that the
      simulator nulled on single-path topologies.
    * ``verify`` — the verifier's runtime tier (sanitizers and race
      detectors) is defined over the full event stream; folded
      iterations dispatch no events, so it forces the exact path.
    """
    reason = config_fold_reason(config)
    if reason is None and network is not None \
            and not isinstance(network, FlowNetwork):
        reason = "custom-network"
    if reason is None and verify:
        reason = "verify"
    if reason is None and network is not None:
        strategy = getattr(network, "routing", None)
        if strategy is not None and getattr(strategy, "dynamic", False):
            reason = "dynamic-routing"
    if reason is not None:
        return FoldDecision(False, reason)
    return FoldDecision(True)


def steady(previous: float, last: float, tolerance: float) -> bool:
    """Whether two consecutive warm-up iteration durations agree.

    Relative comparison against the larger magnitude; an exact match
    always passes (covering ``tolerance=0`` and zero-duration corner
    cases).
    """
    if previous == last:
        return True
    scale = max(abs(previous), abs(last))
    return abs(last - previous) <= tolerance * scale
