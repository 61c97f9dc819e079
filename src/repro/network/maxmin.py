"""Max-min fair rates for one contention component (progressive filling).

The flow network's bandwidth solvers, as pure functions: each takes one
route per flow, as a tuple of edge ids, plus a capacity list indexed by
edge id, and returns the flows' rates in input order.  Nothing here
reads network state: :class:`~repro.network.flow.FlowNetwork` passes
each contended component's routes and its live capacities, and the
differential tests call the solvers directly.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Set, Tuple

try:  # vectorized waterfill fast path; the scalar solver is always kept
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the toolchain
    _np = None

_RATE_EPS = 1e-9

#: Component size at which the numpy waterfill takes over from the scalar
#: solver.  Below it, array setup costs more than the dict loops save; the
#: two paths produce bit-identical rates (see
#: ``tests/test_fold.py::test_vector_waterfill_matches_scalar``), so the
#: threshold is purely a speed knob.  Each side wins on its own range
#: (measured per component in ``docs/network.md``).
_VECTOR_MIN_FLOWS = 24

#: A route as edge ids (the solvers' input).
EdgeIds = Tuple[int, ...]
Warn = Callable[..., None]


def maxmin_rates(routes: Sequence[EdgeIds], capacity: Sequence[float],
                 warn: Warn) -> List[float]:
    """Max-min rates for one contention component, in input order.

    Dispatches to :func:`maxmin_vector` for components of at least
    :data:`_VECTOR_MIN_FLOWS` flows and to :func:`maxmin_scalar`
    otherwise.  The two are bit-identical: every float the vector path
    produces comes from the same IEEE operations in the same per-round
    order (the bottleneck ``min`` is over the same value set, and
    ``min`` of floats is order-independent).
    """
    if _np is not None and len(routes) >= _VECTOR_MIN_FLOWS:
        return maxmin_vector(routes, capacity, warn)
    return maxmin_scalar(routes, capacity, warn)


def maxmin_scalar(routes: Sequence[EdgeIds], capacity: Sequence[float],
                  warn: Warn) -> List[float]:
    """Counter-based progressive filling over one contention component.

    *routes* holds one edge-id tuple per flow and *capacity* is indexed
    by edge id.  Per iteration: O(links) to find the bottleneck
    increment and update residuals, plus O(route length) per newly
    frozen flow — the per-edge live counters replace the dense oracle's
    O(links x flows) set intersections.  Output depends only on the
    routes and capacities, never on iteration order, so re-solving an
    unchanged component reproduces its rates bit-for-bit.  *warn*
    receives ``(message, **detail)`` at a numerical-safety edge.
    """
    residual: Dict[int, float] = {}
    users: Dict[int, List[int]] = {}
    live: Dict[int, int] = {}
    for index, route in enumerate(routes):
        for edge in route:
            if edge not in residual:
                residual[edge] = capacity[edge]
                users[edge] = []
                live[edge] = 0
            users[edge].append(index)
            live[edge] += 1
    total = len(routes)
    rates = [0.0] * total
    frozen: Set[int] = set()
    while len(frozen) < total:
        # Smallest equal increment any loaded edge can still give.
        delta = None
        for edge, count in live.items():
            if count:
                candidate = residual[edge] / count
                if delta is None or candidate < delta:
                    delta = candidate
        saturated: List[int] = []
        for edge, count in live.items():
            if count:
                residual[edge] -= delta * count
                if residual[edge] <= _RATE_EPS * max(delta, 1.0):
                    saturated.append(edge)
        for index in range(total):
            if index not in frozen:
                rates[index] += delta
        newly: List[int] = []
        for edge in saturated:
            for index in users[edge]:
                if index not in frozen:
                    frozen.add(index)
                    newly.append(index)
        if not newly:
            # Numerical safety: an increment that saturates no edge
            # would loop forever.  Surface it instead of silently
            # breaking — SZ004 turns this into a report finding.
            warn(f"progressive filling stalled: increment {delta!r} "
                 f"saturated no link with {total - len(frozen)} "
                 "flow(s) unfrozen",
                 delta=delta, unfrozen=total - len(frozen))
            break
        for index in newly:
            for edge in routes[index]:
                live[edge] -= 1
    return rates


def maxmin_vector(routes: Sequence[EdgeIds], capacity: Sequence[float],
                  warn: Warn) -> List[float]:
    """Array-backed progressive filling (the numpy waterfill).

    Same algorithm as :func:`maxmin_scalar` with the per-round dict
    loops replaced by array ops over a flat local edge-index array:
    residual/live updates are elementwise, the bottleneck increment is
    ``min`` over the loaded edges, and the freeze step is a segmented
    ``bitwise_or.reduceat`` over each flow's route slice.  Bit-identity
    with the scalar solver is pinned by a differential test; the warning
    edges emit the same messages.
    """
    route_lens = [len(route) for route in routes]
    local: Dict[int, int] = {}
    caps: List[float] = []
    flat: List[int] = []  # local edge indices, routes concatenated
    for route in routes:
        for edge in route:
            index = local.get(edge)
            if index is None:
                index = local[edge] = len(caps)
                caps.append(capacity[edge])
            flat.append(index)
    n_flows = len(routes)
    n_edges = len(caps)
    lens = _np.asarray(route_lens, dtype=_np.int64)
    flat_arr = _np.asarray(flat, dtype=_np.int64)
    starts = _np.zeros(n_flows, dtype=_np.int64)
    _np.cumsum(lens[:-1], out=starts[1:])
    residual = _np.asarray(caps, dtype=_np.float64)
    live = _np.bincount(flat_arr, minlength=n_edges)
    rates = _np.zeros(n_flows, dtype=_np.float64)
    frozen = _np.zeros(n_flows, dtype=bool)
    unfrozen = n_flows
    while unfrozen:
        loaded = live > 0
        delta = float(_np.min(residual[loaded] / live[loaded]))
        residual[loaded] -= delta * live[loaded]
        saturated = loaded & (residual <= _RATE_EPS * max(delta, 1.0))
        rates[~frozen] += delta
        newly = _np.bitwise_or.reduceat(saturated[flat_arr], starts)
        newly &= ~frozen
        if not newly.any():
            warn(f"progressive filling stalled: increment {delta!r} "
                 f"saturated no link with {unfrozen} flow(s) unfrozen",
                 delta=delta, unfrozen=unfrozen)
            break
        frozen |= newly
        unfrozen = int(n_flows - int(frozen.sum()))
        live -= _np.bincount(flat_arr[_np.repeat(newly, lens)],
                             minlength=n_edges)
    return rates.tolist()
