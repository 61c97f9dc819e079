"""Steady-state iteration folding: eligibility and the fold arithmetic.

Multi-iteration training is periodic by construction: the inter-iteration
fence forces every task of iteration *k* to finish before any task of
iteration *k+1* starts, so each post-fence iteration replays the previous
one's event schedule shifted by one iteration period.  When nothing
time-dependent crosses the fence — no fault windows, no congestion-
adaptive routing state — simulating the tail event-by-event recomputes
a schedule that is already known.

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
dynamic half additionally inspects the built network.  The verifier's
runtime tier does not rule folding out: it observes the iterations that
are simulated (see ``docs/verifier.md``).  The arithmetic itself lives
in :meth:`repro.core.simulator.TrioSim.run`.
"""

from __future__ import annotations

from typing import Optional

from repro.network.flow import FlowNetwork

#: Folding engages only when it would skip at least this many iterations;
#: below the threshold the exact event-by-event path is used (and stays
#: bit-identical to builds that predate folding).
FOLD_MIN_FOLDED = 2


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


def fold_reason(config, network) -> Optional[str]:
    """Why a :class:`~repro.core.simulator.TrioSim` run may not fold, or
    ``None`` when it may.

    The result surfaces as ``fold_status`` ``"off:<reason>"``.  Beyond
    the static config gate (:func:`config_fold_reason`), a run is
    disqualified by the network it was built with:

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
    """
    reason = config_fold_reason(config)
    if reason is not None:
        return reason
    if not isinstance(network, FlowNetwork):
        return "custom-network"
    if network.routing is not None and network.routing.dynamic:
        return "dynamic-routing"
    return None


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
