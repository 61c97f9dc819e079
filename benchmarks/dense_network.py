"""The dense max-min allocator: the differential oracle for the flow model.

:class:`repro.network.flow.FlowNetwork` re-solves only the contention
components a flow start, finish or capacity change touches, and keeps a
flow's delivery event when its rate comes out exactly unchanged.  This
module keeps the original behaviour it replaced, outside the package,
for two users:

* ``tests/test_network_incremental.py`` pins the scoped allocator
  against it: per-component rates against :func:`maxmin_rates_reference`
  (one global progressive filling), and whole simulations against
  :class:`DenseFlowNetwork`;
* ``network_load.py`` runs every BENCH_network scenario on both, as the
  ``legacy`` and ``incremental`` arms.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.engine.events import Event
from repro.engine.hooks import HookCtx
from repro.network.flow import (
    _RATE_EPS,
    HOOK_FLOW_REALLOC,
    DirectedEdge,
    FlowNetwork,
)


def all_components(network: FlowNetwork) -> List[list]:
    """Every active flow of *network*, partitioned into connected
    components of the link-sharing graph, each in ascending transfer-id
    order and ordered by its smallest member — the order the scoped
    allocator emits, so both solve each component with the same
    floating-point operations."""
    edge_users = network._edge_users
    active = network._active
    components: List[list] = []
    visited: Set[int] = set()
    for flow in sorted(active.values(), key=lambda f: f.transfer_id):
        if flow.transfer_id in visited:
            continue
        ids: Set[int] = {flow.transfer_id}
        stack = [flow]
        seen: Set[DirectedEdge] = set()
        while stack:
            current = stack.pop()
            for edge in current.route:
                if edge in seen:
                    continue
                seen.add(edge)
                for fid in edge_users.get(edge, ()):
                    if fid not in ids:
                        ids.add(fid)
                        stack.append(active[fid])
        visited |= ids
        components.append([active[fid] for fid in sorted(ids)])
    return components


class DenseFlowNetwork(FlowNetwork):
    """A :class:`FlowNetwork` that re-solves every active flow and
    reschedules every delivery on each flow start, finish, or capacity
    change — no scoping, no rate-stability fast path.

    The per-component solver and its operation order are unchanged, so
    results match the scoped allocator bit for bit except for the ulps
    the unconditional progress settle can accumulate on long, globally
    coupled storms.
    """

    def _reallocate(self) -> None:
        self.reallocations += 1
        now = self.engine._now
        components = all_components(self)
        self._dirty.clear()
        if not components:
            return
        solved: list = []
        pending: List[Event] = []
        for component in components:
            rates = self._maxmin_component(component)
            for flow in component:
                self._apply_rate(flow, rates[flow.transfer_id], now, pending)
            solved.extend(component)
        if pending:
            self.engine.schedule_bulk(pending)
        if self._hooks:
            self.invoke_hooks(HookCtx(
                HOOK_FLOW_REALLOC, now, solved,
                detail={"topology": self.topology},
            ))


def maxmin_rates_reference(network: FlowNetwork,
                           flows: list) -> Dict[int, float]:
    """The original dense allocator: one global progressive filling over
    *flows* with per-iteration set intersections, reading capacities
    from *network*'s topology."""
    residual: Dict[DirectedEdge, float] = {}
    users: Dict[DirectedEdge, Set[int]] = {}
    for flow in flows:
        for edge in flow.route:
            if edge not in residual:
                u, v = edge
                residual[edge] = network.topology[u][v]["bandwidth"]
                users[edge] = set()
            users[edge].add(flow.transfer_id)
    rates = {flow.transfer_id: 0.0 for flow in flows}
    unfrozen = set(rates)
    flow_routes = {f.transfer_id: f.route for f in flows}
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
            if any(edge in saturated for edge in flow_routes[fid])
        }
        if not frozen:
            break  # numerical safety; the live solver warns here
        unfrozen -= frozen
    return rates
