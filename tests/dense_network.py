"""The dense max-min allocator: the differential oracle for the flow model.

:class:`repro.network.flow.FlowNetwork` re-solves only the contention
components a flow start, finish or capacity change touches, gives a flow
that shares no link its route's bottleneck without a solve, and keeps a
flow's delivery event when its rate comes out exactly unchanged.  This
module keeps the original behaviour it replaced, outside the package:
``tests/test_network_incremental.py`` pins the scoped allocator against
it, per-component rates against :func:`maxmin_rates_reference` (one
global progressive filling) and whole simulations against
:class:`DenseFlowNetwork`.

:func:`all_components` and :func:`maxmin_rates_reference` are pure
functions of ``{flow id: route}`` mappings, so they never read the
network's internal state.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Set

import networkx as nx

from repro.network.flow import DirectedEdge, FlowNetwork
from repro.network.maxmin import _RATE_EPS, maxmin_scalar

Routes = Mapping[int, Sequence[Hashable]]


def all_components(routes: Routes) -> List[List[int]]:
    """Partition the flow ids of *routes* (id -> edges) into connected
    components of the link-sharing graph, each in ascending id order and
    ordered by its smallest member — the order the scoped allocator
    emits, so both solve each component with the same floating-point
    operations."""
    users: Dict[Hashable, List[int]] = {}
    for fid, route in routes.items():
        for edge in route:
            users.setdefault(edge, []).append(fid)
    components: List[List[int]] = []
    visited: Set[int] = set()
    for fid in sorted(routes):
        if fid in visited:
            continue
        ids: Set[int] = {fid}
        stack = [fid]
        seen: Set[Hashable] = set()
        while stack:
            for edge in routes[stack.pop()]:
                if edge in seen:
                    continue
                seen.add(edge)
                for other in users[edge]:
                    if other not in ids:
                        ids.add(other)
                        stack.append(other)
        visited |= ids
        components.append(sorted(ids))
    return components


class DenseFlowNetwork(FlowNetwork):
    """A :class:`FlowNetwork` that re-solves every active flow and
    reschedules every delivery on each flow start, finish, or capacity
    change — no scoping, no contention-free path, no rate-stability fast
    path.

    It partitions the active flows with :func:`all_components` and solves
    every component, single flows included, with the scalar solver over
    the live capacities; only the rate installation is shared with the
    scoped allocator.  Components come out in the scoped allocator's
    order and the scalar solver is bit-identical to both of its solvers,
    so results match it bit for bit except for the ulps the
    unconditional progress settle can accumulate on long, globally
    coupled storms.
    """

    def _reallocate(self) -> None:
        self.reallocations += 1
        self._dirty.clear()
        if not self._active:
            return
        slots = {self._tid[slot]: slot for slot in self._active}
        routes = {tid: self._route_edges[self._route[slot]]
                  for tid, slot in slots.items()}
        solved = [
            ([slots[tid] for tid in component],
             maxmin_scalar([routes[tid] for tid in component], self._cap,
                           self._warn_allocator))
            for component in all_components(routes)
        ]
        self._install([pair for members, rates in solved
                       for pair in zip(members, rates)], solved)


def maxmin_rates_reference(topology: nx.Graph,
                           routes: Mapping[int, Sequence[DirectedEdge]]
                           ) -> Dict[int, float]:
    """The original dense allocator: one global progressive filling over
    *routes* (flow id -> directed edge list) with per-iteration set
    intersections, reading capacities from *topology*."""
    residual: Dict[DirectedEdge, float] = {}
    users: Dict[DirectedEdge, Set[int]] = {}
    for fid, route in routes.items():
        for edge in route:
            if edge not in residual:
                u, v = edge
                residual[edge] = topology[u][v]["bandwidth"]
                users[edge] = set()
            users[edge].add(fid)
    rates = {fid: 0.0 for fid in routes}
    unfrozen = set(rates)
    while unfrozen:
        delta = None
        for edge, flow_ids in users.items():
            live = len(flow_ids & unfrozen)
            if live:
                candidate = residual[edge] / live
                if delta is None or candidate < delta:
                    delta = candidate
        if delta is None:
            break
        saturated: Set[DirectedEdge] = set()
        for edge, flow_ids in users.items():
            live = len(flow_ids & unfrozen)
            if live:
                residual[edge] -= delta * live
                if residual[edge] <= _RATE_EPS * max(delta, 1.0):
                    saturated.add(edge)
        for fid in list(unfrozen):
            rates[fid] += delta
        frozen = {
            fid for fid in unfrozen
            if any(edge in saturated for edge in routes[fid])
        }
        if not frozen:
            break  # numerical safety; the live solver warns here
        unfrozen -= frozen
    return rates
