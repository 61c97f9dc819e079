"""Flow-based packet-switching network model (the default transport).

A transfer is a *flow* holding its remaining bytes and current rate.  The
model implements the paper's 4-step packet process (Figure 5):

1. **Routing** — shortest path over the topology, cached per (src, dst)
   pair; the reverse pair is filled in the same lookup (paths are
   symmetric on our undirected topologies).  On multi-path fabrics a
   :class:`~repro.network.routing.RoutingStrategy` (ECMP / flowlet /
   congestion-adaptive) chooses among the equal-cost shortest paths at
   flow start; candidate paths are enumerated in sorted order and cached
   per pair, and a pair with a single candidate always takes it, so
   single-path topologies behave bit-identically under every strategy.
2. **Bandwidth allocation** — max-min fair shares over directed link
   capacities (progressive filling), solved per component: a link→flow
   incidence index scopes each re-allocation to the contention component
   touched by the flows that joined or left, so disjoint traffic keeps
   its rates untouched.
3. **Progress update** — flows whose rate actually changed have their
   remaining bytes settled and their delivery event rescheduled; flows
   whose rate is unchanged keep their existing heap entry (the
   rate-stability fast path — no cancel storm).
4. **Delivery** — at the delivery event, the callback fires and bandwidth
   is re-allocated for the component the flow leaves behind.

Path latency is paid once, up front: a flow joins the bandwidth allocation
after its route latency elapses.

Scoped allocation is behavior-preserving by construction: max-min
fairness decomposes over connected components of the flow/link sharing
graph, every component is solved as an isolated problem, and the
component solver's output depends only on the component's flow set,
routes, and capacities — never on iteration order or on what the rest of
the network is doing.  The original dense allocator (one global
progressive filling, every delivery rescheduled on every change) lives
outside the package as a differential oracle, in
``benchmarks/dense_network.py``; differential property tests pin the
two against each other and BENCH_network's ``legacy`` arm times it
(see ``docs/network.md``).
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Optional, Set, Tuple, Union

import networkx as nx

from repro.engine.engine import Engine
from repro.engine.events import CallbackEvent, Event
from repro.engine.hooks import HookCtx, Hookable
from repro.network.base import Transfer
from repro.network.routing import (
    RoutingStrategy,
    ShortestPathRouting,
    get_routing_strategy,
)

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

#: Hook positions for observers.
HOOK_FLOW_START = "flow_start"
HOOK_FLOW_DELIVER = "flow_deliver"
#: Fired after every bandwidth reallocation with the solved flow list and
#: the topology in the detail — the link-capacity sanitizer's feed.  The
#: list holds the re-solved contention component(s); component closure
#: guarantees every user of every link those flows touch is present, so
#: per-link rate sums stay complete.
HOOK_FLOW_REALLOC = "flow_realloc"
#: Fired when the allocator hits a numerical-safety edge (e.g. progressive
#: filling failing to freeze any flow).  ``item`` is the warning message;
#: the SZ004 sanitizer turns these into report findings.
HOOK_FLOW_WARNING = "flow_warning"

DirectedEdge = Tuple[str, str]


class RoutingError(ValueError):
    """No route exists between two endpoints of a transfer.

    Raised with the offending ``src -> dst`` pair named instead of
    propagating networkx's bare ``NetworkXNoPath`` / ``NodeNotFound``.
    """


class _Flow(Transfer):
    """Internal flow state layered on the public Transfer record."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.route: List[DirectedEdge] = []
        #: Index of the chosen candidate path for this flow's pair (0 on
        #: single-path pairs and under the default shortest-path policy).
        self.path_index: int = 0
        self.remaining: float = self.nbytes
        self.rate: float = 0.0
        self.last_update: float = 0.0
        self.deliver_event: Optional[Event] = None


class FlowNetwork(Hookable):
    """Max-min fair flow network over an annotated topology graph.

    Parameters
    ----------
    engine:
        The simulation engine flows schedule their delivery events on.
    topology:
        ``networkx.Graph`` with ``bandwidth`` and ``latency`` edge
        attributes (see :mod:`repro.network.topology`).  Links are full
        duplex: each undirected edge provides its bandwidth independently
        in both directions.
    routing:
        A :class:`~repro.network.routing.RoutingStrategy` instance or
        registered strategy name choosing among equal-cost shortest paths
        on multi-path fabrics.  ``None`` (the default) and ``"shortest"``
        keep the legacy single-shortest-path behavior bit-identically.
    routing_seed:
        Seed passed to the strategy when *routing* is given by name;
        ignored when *routing* is already an instance.
    """

    #: Deterministic cap on enumerated equal-cost paths per pair.  Clos
    #: fabrics stay well below it ((k/2)^2 = 64 inter-pod paths at k=16);
    #: it exists so pathological pairs on large meshes (combinatorially
    #: many lattice paths) cannot blow up enumeration.
    max_candidate_paths = 64

    def __init__(self, engine: Engine, topology: nx.Graph,
                 routing: Optional[Union[str, RoutingStrategy]] = None,
                 routing_seed: int = 0):
        super().__init__()
        self.engine = engine
        self.topology = topology
        if isinstance(routing, str):
            routing = get_routing_strategy(routing, seed=routing_seed)
        #: The active strategy instance, or ``None`` for legacy routing.
        self.routing: Optional[RoutingStrategy] = routing
        self._route_cache: Dict[Tuple[str, str], List[DirectedEdge]] = {}
        # Directed edge -> live capacity, shadowing the topology's edge
        # attribute.  networkx adjacency lookups build an AtlasView per
        # access — far too slow for the allocator's inner loops — so the
        # hot paths read this plain dict instead.  The *only* runtime
        # mutation point for capacities is :meth:`set_link_capacity`,
        # which writes both the graph and this cache.
        self._bandwidth_cache: Dict[DirectedEdge, float] = {}
        # id(route list) -> summed link latency.  Route lists are interned
        # in _route_cache/_candidate_cache for the network's lifetime, so
        # their ids are stable cache keys; link latencies never change at
        # runtime (faults degrade bandwidth, not latency).
        self._latency_sum: Dict[int, float] = {}
        # (src, dst) -> candidate path list (legacy shortest path first,
        # remaining equal-cost paths in sorted order).
        self._candidate_cache: Dict[Tuple[str, str],
                                    List[List[DirectedEdge]]] = {}
        # (src, dst) -> chosen candidate index, for static (non-dynamic)
        # strategies; one choice per pair per run.
        self._choice_cache: Dict[Tuple[str, str], int] = {}
        # (src, dst) -> {candidate index: flows sent down it}; recorded
        # only for pairs that actually had more than one candidate.
        self._path_choices: Dict[Tuple[str, str], Dict[int, int]] = {}
        # Directed edge -> flows routed onto it but not yet active (the
        # send->activate latency window).  Adaptive routing reads this on
        # top of the incidence index so a wave of flows issued at the
        # same instant still sees its own earlier members' choices.
        self._route_commitments: Dict[DirectedEdge, int] = {}
        # Directed edge -> [bytes delivered, flows carried, peak
        # concurrent flows] — the per-link congestion counters surfaced
        # by :meth:`network_summary`.
        self._link_stats: Dict[DirectedEdge, List] = {}
        # Flow-completion-time accumulators (wire flows only).
        self._fct_count = 0
        self._fct_total = 0.0
        self._fct_min = math.inf
        self._fct_max = 0.0
        # Keyed by transfer_id; dict preserves insertion order, keeping
        # iteration deterministic with O(1) removal.
        self._active: Dict[int, _Flow] = {}
        # Link -> ids of active flows crossing it (the incidence index
        # scoped reallocation walks).
        self._edge_users: Dict[DirectedEdge, Set[int]] = {}
        # Links whose user set changed since the last reallocation; the
        # seeds of the next contention-component walk.
        self._dirty: Set[DirectedEdge] = set()
        self._ids = itertools.count()
        self._realloc_pending = False
        self.delivered_count = 0
        self.total_bytes_delivered = 0.0
        self.reallocations = 0
        #: Delivery events actually cancelled + rescheduled (rate changed).
        self.reschedules = 0
        #: Flows whose solved rate was unchanged and kept their heap entry.
        self.fastpath_hits = 0
        #: Numerical-safety warnings emitted by the allocator.
        self.allocator_warnings = 0

    # ------------------------------------------------------------------
    # Step 1: routing
    # ------------------------------------------------------------------
    def route(self, src: str, dst: str) -> List[DirectedEdge]:
        """Directed edge list of the cached shortest path src -> dst.

        Computing a path also populates the reverse pair with the mirrored
        edge list — paths are symmetric on our undirected topologies, so
        collectives (which nearly always talk both ways across a pair) pay
        for each route search once.

        Raises :class:`RoutingError` naming the pair when either endpoint
        is missing from the topology or no path connects them.
        """
        key = (src, dst)
        if key not in self._route_cache:
            for endpoint in (src, dst):
                if endpoint not in self.topology:
                    raise RoutingError(
                        f"cannot route {src} -> {dst}: {endpoint!r} is not "
                        "a node of the topology"
                    )
            try:
                path = nx.shortest_path(self.topology, src, dst)
            except nx.NetworkXNoPath as exc:
                raise RoutingError(
                    f"no path from {src!r} to {dst!r}: the topology is "
                    "disconnected between them"
                ) from exc
            edges = list(zip(path, path[1:]))
            self._route_cache[key] = edges
            reverse = (dst, src)
            if reverse not in self._route_cache:
                self._route_cache[reverse] = [(v, u) for u, v in reversed(edges)]
        return self._route_cache[key]

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of link latencies along the route (see :meth:`route` for
        the error raised on disconnected pairs)."""
        return self._route_latency(self.route(src, dst))

    def _route_latency(self, route: List[DirectedEdge]) -> float:
        """Summed link latency of an interned route list, cached by id."""
        key = id(route)
        latency = self._latency_sum.get(key)
        if latency is None:
            topology = self.topology
            latency = sum(topology[u][v]["latency"] for u, v in route)
            self._latency_sum[key] = latency
        return latency

    def link_bandwidth(self, edge: DirectedEdge) -> float:
        """Live capacity of a directed edge, from the shadow cache.

        Reflects fault degradation immediately (see
        :meth:`set_link_capacity`); reads the topology only on first
        touch per edge.  Routing strategies should prefer this over
        ``topology[u][v]["bandwidth"]`` — it is the same value without
        the per-access networkx adjacency-view cost.
        """
        bandwidth = self._bandwidth_cache.get(edge)
        if bandwidth is None:
            u, v = edge
            bandwidth = self.topology[u][v]["bandwidth"]
            self._bandwidth_cache[edge] = bandwidth
        return bandwidth

    def candidate_routes(self, src: str, dst: str) -> List[List[DirectedEdge]]:
        """All equal-cost shortest paths src -> dst, as directed edge lists.

        The first candidate is always the legacy :meth:`route` path, so
        index 0 reproduces pre-multipath behavior exactly; the remaining
        candidates follow in lexicographically sorted order.  Enumeration
        is capped at :attr:`max_candidate_paths` (deterministically — the
        cap keeps a sorted prefix).  The list is cached per pair.
        """
        key = (src, dst)
        cached = self._candidate_cache.get(key)
        if cached is not None:
            return cached
        primary = self.route(src, dst)  # validates endpoints/connectivity
        if not primary:
            candidates = [primary]
        else:
            paths = itertools.islice(
                nx.all_shortest_paths(self.topology, src, dst),
                self.max_candidate_paths,
            )
            candidates = [primary]
            for path in sorted(paths):
                edges = list(zip(path, path[1:]))
                if edges != primary:
                    candidates.append(edges)
        self._candidate_cache[key] = candidates
        return candidates

    def _route_for(self, src: str, dst: str) -> Tuple[List[DirectedEdge], int]:
        """Route a new flow: the chosen edge list and its candidate index.

        ``None`` / shortest-path routing short-circuits to the legacy
        cached path; pairs with a single candidate always take it (the
        bit-identity guarantee for single-path topologies); otherwise the
        strategy chooses, with the choice cached per pair for static
        strategies and re-made per flow for dynamic ones.
        """
        strategy = self.routing
        if strategy is None or isinstance(strategy, ShortestPathRouting):
            return self.route(src, dst), 0
        candidates = self.candidate_routes(src, dst)
        if len(candidates) == 1:
            return candidates[0], 0
        key = (src, dst)
        if strategy.dynamic:
            index = strategy.choose(src, dst, candidates, self)
        else:
            index = self._choice_cache.get(key, -1)
            if index < 0:
                index = strategy.choose(src, dst, candidates, self)
                self._choice_cache[key] = index
        if not 0 <= index < len(candidates):
            raise ValueError(
                f"routing strategy {strategy.name!r} chose path {index} "
                f"for {src}->{dst}, out of range for "
                f"{len(candidates)} candidates"
            )
        counts = self._path_choices.setdefault(key, {})
        counts[index] = counts.get(index, 0) + 1
        return candidates[index], index

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, nbytes: float,
             callback: Callable[[Transfer], None], tag: object = None,
             pending: Optional[List[Event]] = None) -> Transfer:
        """Start a transfer; the callback fires at delivery.

        When *pending* is given the kick-off event (activation after
        route latency, or the zero-delay local delivery) is appended to
        it instead of being scheduled — the caller batches a whole
        release wave into one :meth:`Engine.schedule_bulk`, which stamps
        sequence numbers in list order, so dispatch order is identical
        to scheduling each send as it was issued.

        Raises :class:`RoutingError` when either endpoint is unknown or
        unreachable, :class:`ValueError` on negative sizes.
        """
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        route, path_index = self._route_for(src, dst)  # validates endpoints
        flow = _Flow(next(self._ids), src, dst, float(nbytes), callback, tag)
        flow.path_index = path_index
        # engine._now read directly on the per-flow paths in this module:
        # the .now property costs a descriptor call per access.
        now = self.engine._now
        flow.start_time = now
        if self._hooks:
            self.invoke_hooks(HookCtx(HOOK_FLOW_START, now, flow))
        if not route or nbytes == 0:
            # Local move: no wire time; deliver via a zero-delay event so
            # callback ordering stays consistent with real transfers.
            event: Event = CallbackEvent(
                now + 0.0, lambda _ev, f=flow: self._deliver(f))
        else:
            flow.route = route
            commitments = self._route_commitments
            for edge in route:
                commitments[edge] = commitments.get(edge, 0) + 1
            event = CallbackEvent(
                now + self._route_latency(route),
                lambda _ev, f=flow: self._activate(f))
        if pending is None:
            self.engine.schedule(event)
        else:
            pending.append(event)
        return flow

    @property
    def active_flows(self) -> int:
        return len(self._active)

    def set_link_capacity(self, u: str, v: str, bandwidth: float) -> None:
        """Re-rate the undirected link *u*—*v* to *bandwidth* bytes/s.

        The fault injector's link-degradation primitive: mutates the
        topology's edge attribute, then reuses the scoped re-solve —
        both directed edges are marked dirty, so the next (coalesced)
        reallocation re-solves exactly the contention component(s) using
        the link and leaves disjoint traffic untouched.  Routes never
        change: capacity is allowed to degrade, not to reach zero, so the
        cached shortest paths stay valid.
        """
        if bandwidth <= 0:
            raise ValueError(
                f"link {u}-{v}: bandwidth must be positive (links degrade, "
                "they do not disappear — routes are static)"
            )
        if not self.topology.has_edge(u, v):
            raise ValueError(f"link {u}-{v}: no such edge in the topology")
        value = float(bandwidth)
        self.topology[u][v]["bandwidth"] = value
        for edge in ((u, v), (v, u)):
            self._bandwidth_cache[edge] = value
            if self._edge_users.get(edge):
                self._dirty.add(edge)
        if self._active:
            self._request_reallocate()

    def stall(self, delay: float) -> None:
        """Freeze every active flow's progress for *delay* seconds.

        Companion to :meth:`Engine.defer_pending`: deferring a delivery
        event postpones *when* a flow completes, but a later ``_apply_rate``
        would still settle ``remaining -= rate * (now - last_update)`` as
        if the flow had kept transferring through the outage.  Settling
        progress up to now and advancing ``last_update`` past the stall
        window makes the outage transfer zero bytes.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        now = self.engine.now
        for flow in self._active.values():
            flow.remaining -= flow.rate * (now - flow.last_update)
            if flow.remaining < 0.0:
                flow.remaining = 0.0
            flow.last_update = now + delay

    # ------------------------------------------------------------------
    # Steps 2-3: allocation and progress updates
    # ------------------------------------------------------------------
    def _activate(self, flow: _Flow) -> None:
        flow.last_update = self.engine._now
        self._active[flow.transfer_id] = flow
        commitments = self._route_commitments
        edge_users = self._edge_users
        link_stats = self._link_stats
        dirty = self._dirty
        tid = flow.transfer_id
        for edge in flow.route:
            left = commitments.get(edge, 0) - 1
            if left > 0:
                commitments[edge] = left
            else:
                commitments.pop(edge, None)
            users = edge_users.get(edge)
            if users is None:
                users = edge_users[edge] = set()
            users.add(tid)
            dirty.add(edge)
            stats = link_stats.get(edge)
            if stats is None:
                stats = link_stats[edge] = [0.0, 0, 0]
            stats[1] += 1
            if len(users) > stats[2]:
                stats[2] = len(users)
        self._request_reallocate()

    def _request_reallocate(self) -> None:
        """Coalesce reallocation requests within one virtual instant.

        Collectives start/finish whole waves of flows at the same time;
        recomputing shares once per wave instead of once per flow keeps
        large systems (hundreds of GPUs) fast without changing any
        delivery time: flows accrue no progress between the request and
        the zero-delay recompute.
        """
        if self._realloc_pending:
            return
        self._realloc_pending = True
        self.engine.call_after(0.0, self._deferred_reallocate)

    def _deferred_reallocate(self, _event) -> None:
        self._realloc_pending = False
        self._reallocate()

    def _reallocate(self) -> None:
        """Re-solve max-min rates for every contention component that
        changed and reschedule only the deliveries whose rate moved."""
        self.reallocations += 1
        now = self.engine._now
        components = self._dirty_components()
        self._dirty.clear()
        if not components:
            return
        solved: List[_Flow] = []
        pending: List[Event] = []
        for component in components:
            rates = self._maxmin_component(component)
            for flow in component:
                rate = rates[flow.transfer_id]
                event = flow.deliver_event
                if (rate == flow.rate and event is not None
                        and not event.cancelled):
                    # Rate-stability fast path: the rate is exactly
                    # unchanged, so the existing heap entry is already
                    # correct and stays put.
                    self.fastpath_hits += 1
                else:
                    self._apply_rate(flow, rate, now, pending)
            solved.extend(component)
        # One bulk insert for the whole reschedule wave (a collective can
        # move hundreds of deliveries at once).  Sequence numbers are
        # assigned in list order — the same order the per-flow heappushes
        # used — and nothing dispatches between collection and insertion,
        # so delivery order is bit-identical to the one-at-a-time path.
        if pending:
            self.engine.schedule_bulk(pending)
        if self._hooks:
            self.invoke_hooks(HookCtx(
                HOOK_FLOW_REALLOC, now, solved,
                detail={"topology": self.topology},
            ))

    def _apply_rate(self, flow: _Flow, rate: float, now: float,
                    pending: List[Event]) -> None:
        """Install a solved rate: settle progress and queue the delivery
        reschedule onto *pending*."""
        flow.remaining -= flow.rate * (now - flow.last_update)
        if flow.remaining < 0.0:
            flow.remaining = 0.0
        flow.last_update = now
        flow.rate = rate
        event = flow.deliver_event
        if rate > _RATE_EPS:
            self.reschedules += 1
            deliver_at = now + flow.remaining / rate
            if event is not None and not event.cancelled:
                # Requeue the existing delivery event instead of
                # cancel-and-replace: mark_requeued orphans the old heap
                # entry (skipped silently, never observed) and the bulk
                # insert below stamps a fresh sequence number — the
                # dispatch stream is bit-identical to the legacy path
                # with no throwaway event allocation.
                self.engine.mark_requeued(event)
                event.time = deliver_at
            else:
                event = CallbackEvent(
                    deliver_at, lambda _ev, f=flow: self._deliver(f))
                flow.deliver_event = event
            pending.append(event)
        elif event is not None:
            event.cancel()
            flow.deliver_event = None

    # ------------------------------------------------------------------
    # Contention components (the incidence-index walks)
    # ------------------------------------------------------------------
    def _dirty_components(self) -> List[List[_Flow]]:
        """Contention components touched since the last solve, directly.

        One BFS per component over the incidence index, seeded from the
        users of each dirty edge.  Flows outside the closure provably
        keep their rates: max-min fairness decomposes over link-sharing
        components.  Emission order is canonical — components ascend by
        their smallest member transfer-id, members ascend within — so a
        component re-solves with the same floating-point operations
        whichever change dirtied it (with every loaded link dirty, this
        partitions the whole active set the same way).
        """
        edge_users = self._edge_users
        active = self._active
        seeds: Set[int] = set()
        for edge in self._dirty:
            users = edge_users.get(edge)
            if users:
                seeds.update(users)
        if not seeds:
            return []
        visited: Set[int] = set()
        keyed: List[Tuple[int, List[_Flow]]] = []
        for fid in sorted(seeds):
            if fid in visited:
                continue
            flow = active[fid]
            ids: Set[int] = {fid}
            stack: List[_Flow] = [flow]
            seen: Set[DirectedEdge] = set()
            while stack:
                current = stack.pop()
                for edge in current.route:
                    if edge in seen:
                        continue
                    seen.add(edge)
                    for ofid in edge_users.get(edge, ()):
                        if ofid not in ids:
                            ids.add(ofid)
                            stack.append(active[ofid])
            visited |= ids
            if len(ids) == 1:
                # Disjoint flow — the overwhelmingly common case on
                # multipath fabrics.
                keyed.append((fid, [flow]))
            else:
                ordered = sorted(ids)
                keyed.append((ordered[0],
                              [active[f] for f in ordered]))
        # A component's smallest member need not be a seed, so seed
        # order alone cannot order components; sort by min member id.
        if len(keyed) > 1:
            keyed.sort(key=lambda kc: kc[0])
        return [component for _, component in keyed]

    # ------------------------------------------------------------------
    # Max-min solvers
    # ------------------------------------------------------------------
    def _maxmin_component(self, flows: List[_Flow]) -> Dict[int, float]:
        """Max-min rates for one contention component (progressive filling).

        Dispatches to the numpy waterfill for components of at least
        :data:`_VECTOR_MIN_FLOWS` flows and to the scalar counter-based
        solver otherwise.  The two are bit-identical: every float the
        vector path produces comes from the same IEEE operations in the
        same per-round order (the bottleneck ``min`` is over the same
        value set, and ``min`` of floats is order-independent).
        """
        if len(flows) == 1:
            # An uncontended flow's progressive filling terminates after
            # one round with its bottleneck capacity: the first increment
            # is min(capacity) over the route, which saturates the
            # bottleneck edge exactly (cap - cap == 0.0) and freezes the
            # flow.  Returning that min directly is bit-identical
            # (0.0 + delta == delta) and skips the residual/users/live
            # dict construction entirely.
            flow = flows[0]
            route = flow.route
            if route:
                bandwidth = self._bandwidth_cache
                best: Optional[float] = None
                for edge in route:
                    cap = bandwidth.get(edge)
                    if cap is None:
                        cap = self.link_bandwidth(edge)
                    if best is None or cap < best:
                        best = cap
                return {flow.transfer_id: best}
        if _np is not None and len(flows) >= _VECTOR_MIN_FLOWS:
            return self._maxmin_component_vector(flows)
        return self._maxmin_component_scalar(flows)

    def _maxmin_component_scalar(self, flows: List[_Flow]) -> Dict[int, float]:
        """Counter-based progressive filling over one contention component.

        Per iteration: O(links) to find the bottleneck increment and update
        residuals, plus O(route length) per newly frozen flow — the
        per-edge live counters replace the dense oracle's
        O(links x flows) set intersections.  Output depends only on the
        component's flow set, routes, and capacities, never on iteration
        order, so re-solving an unchanged component reproduces its rates
        bit-for-bit.
        """
        bandwidth = self._bandwidth_cache
        residual: Dict[DirectedEdge, float] = {}
        users: Dict[DirectedEdge, List[int]] = {}
        live: Dict[DirectedEdge, int] = {}
        routes: Dict[int, List[DirectedEdge]] = {}
        for flow in flows:
            fid = flow.transfer_id
            routes[fid] = flow.route
            for edge in flow.route:
                if edge not in residual:
                    cap = bandwidth.get(edge)
                    if cap is None:
                        cap = self.link_bandwidth(edge)
                    residual[edge] = cap
                    users[edge] = []
                    live[edge] = 0
                users[edge].append(fid)
                live[edge] += 1
        rates: Dict[int, float] = {fid: 0.0 for fid in routes}
        frozen: Set[int] = set()
        total = len(rates)
        while len(frozen) < total:
            # Smallest equal increment any loaded edge can still give.
            delta = None
            for edge, count in live.items():
                if count:
                    candidate = residual[edge] / count
                    if delta is None or candidate < delta:
                        delta = candidate
            if delta is None:  # pragma: no cover - every flow loads an edge
                self._warn_allocator(
                    f"progressive filling found no loaded link with "
                    f"{total - len(frozen)} flow(s) unfrozen",
                    unfrozen=total - len(frozen),
                )
                break
            saturated: List[DirectedEdge] = []
            for edge, count in live.items():
                if count:
                    residual[edge] -= delta * count
                    if residual[edge] <= _RATE_EPS * max(delta, 1.0):
                        saturated.append(edge)
            for fid in rates:
                if fid not in frozen:
                    rates[fid] += delta
            newly: List[int] = []
            for edge in saturated:
                for fid in users[edge]:
                    if fid not in frozen:
                        frozen.add(fid)
                        newly.append(fid)
            if not newly:
                # Numerical safety: an increment that saturates no edge
                # would loop forever.  Surface it instead of silently
                # breaking — SZ004 turns this into a report finding.
                self._warn_allocator(
                    f"progressive filling stalled: increment {delta!r} "
                    f"saturated no link with {total - len(frozen)} flow(s) "
                    "unfrozen",
                    delta=delta, unfrozen=total - len(frozen),
                )
                break
            for fid in newly:
                for edge in routes[fid]:
                    live[edge] -= 1
        return rates

    def _maxmin_component_vector(self, flows: List[_Flow]) -> Dict[int, float]:
        """Array-backed progressive filling (the numpy waterfill).

        Same algorithm as :meth:`_maxmin_component_scalar` with the
        per-round dict loops replaced by array ops over a flat
        edge-index array: residual/live updates are elementwise, the
        bottleneck increment is ``min`` over the loaded edges, and the
        freeze step is a segmented ``bitwise_or.reduceat`` over each
        flow's route slice.  Bit-identity with the scalar solver is
        pinned by a differential test; the warning edges emit the same
        messages through :meth:`_warn_allocator`.
        """
        route_lens = [len(flow.route) for flow in flows]
        if min(route_lens) == 0:  # pragma: no cover - active flows have wires
            return self._maxmin_component_scalar(flows)
        bandwidth = self._bandwidth_cache
        edge_index: Dict[DirectedEdge, int] = {}
        caps: List[float] = []
        flat: List[int] = []  # edge indices, routes concatenated in flow order
        for flow in flows:
            for edge in flow.route:
                index = edge_index.get(edge)
                if index is None:
                    index = edge_index[edge] = len(caps)
                    cap = bandwidth.get(edge)
                    if cap is None:
                        cap = self.link_bandwidth(edge)
                    caps.append(cap)
                flat.append(index)
        n_flows = len(flows)
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
            if not loaded.any():  # pragma: no cover - every flow loads an edge
                self._warn_allocator(
                    f"progressive filling found no loaded link with "
                    f"{unfrozen} flow(s) unfrozen",
                    unfrozen=unfrozen,
                )
                break
            delta = float(_np.min(residual[loaded] / live[loaded]))
            residual[loaded] -= delta * live[loaded]
            saturated = loaded & (residual <= _RATE_EPS * max(delta, 1.0))
            rates[~frozen] += delta
            newly = _np.bitwise_or.reduceat(saturated[flat_arr], starts)
            newly &= ~frozen
            if not newly.any():
                self._warn_allocator(
                    f"progressive filling stalled: increment {delta!r} "
                    f"saturated no link with {unfrozen} flow(s) "
                    "unfrozen",
                    delta=delta, unfrozen=unfrozen,
                )
                break
            frozen |= newly
            unfrozen = int(n_flows - int(frozen.sum()))
            live -= _np.bincount(flat_arr[_np.repeat(newly, lens)],
                                 minlength=n_edges)
        return {flow.transfer_id: float(rates[i])
                for i, flow in enumerate(flows)}

    def _warn_allocator(self, message: str, **detail) -> None:
        """Surface an allocator numerical-safety edge through the hook
        machinery (SZ004 picks these up) and count it."""
        self.allocator_warnings += 1
        if self._hooks:
            self.invoke_hooks(HookCtx(
                HOOK_FLOW_WARNING, self.engine.now, message, detail=detail,
            ))

    # ------------------------------------------------------------------
    # Step 4: delivery
    # ------------------------------------------------------------------
    def _deliver(self, flow: _Flow) -> None:
        flow.deliver_time = self.engine._now
        flow.deliver_event = None
        was_active = self._active.pop(flow.transfer_id, None) is not None
        if was_active:
            edge_users = self._edge_users
            link_stats = self._link_stats
            dirty = self._dirty
            tid = flow.transfer_id
            nbytes = flow.nbytes
            for edge in flow.route:
                users = edge_users.get(edge)
                if users is not None:
                    users.discard(tid)
                    if not users:
                        del edge_users[edge]
                dirty.add(edge)
                link_stats[edge][0] += nbytes
            if self._active:
                self._request_reallocate()
            else:
                dirty.clear()
        self.delivered_count += 1
        self.total_bytes_delivered += flow.nbytes
        if flow.route:
            fct = flow.deliver_time - flow.start_time
            self._fct_count += 1
            self._fct_total += fct
            if fct < self._fct_min:
                self._fct_min = fct
            if fct > self._fct_max:
                self._fct_max = fct
            if not was_active:
                # Stalled/locally-completed routed flows still account
                # their bytes; the active path folded this into the
                # teardown loop above.
                for edge in flow.route:
                    self._link_stats[edge][0] += flow.nbytes
        if self._hooks:
            self.invoke_hooks(
                HookCtx(HOOK_FLOW_DELIVER, self.engine.now, flow))
        flow.callback(flow)

    # ------------------------------------------------------------------
    # Congestion / routing metrics
    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict:
        """Copy of the cumulative traffic counters, for delta arithmetic.

        Steady-state iteration folding takes one snapshot before and one
        after the last warm-up iteration; :meth:`extend_stats` then
        replays the delta algebraically for every folded iteration.  Only
        *additive* counters are captured — extrema (per-link peak
        concurrent flows, FCT min/max) are invariant under replaying the
        same iteration and need no extension.
        """
        return {
            "delivered_count": self.delivered_count,
            "total_bytes": self.total_bytes_delivered,
            "fct_count": self._fct_count,
            "fct_total": self._fct_total,
            "reallocations": self.reallocations,
            "reschedules": self.reschedules,
            "fastpath_hits": self.fastpath_hits,
            "link_stats": {edge: (stats[0], stats[1])
                           for edge, stats in self._link_stats.items()},
            "path_choices": {pair: dict(counts)
                             for pair, counts in self._path_choices.items()},
        }

    def extend_stats(self, before: Dict, after: Dict, repeats: int) -> None:
        """Advance the additive counters by *repeats* copies of the
        *before* → *after* delta (one folded steady-state iteration each).

        After this, :meth:`network_summary` reports the traffic an
        unfolded run of ``warmup + repeats`` identical iterations would
        have reported, except ``utilization`` (recomputed from totals, so
        it extends for free) and the extrema noted in
        :meth:`stats_snapshot`.
        """
        if repeats <= 0:
            return
        for attr, key in (
            ("delivered_count", "delivered_count"),
            ("total_bytes_delivered", "total_bytes"),
            ("_fct_count", "fct_count"),
            ("_fct_total", "fct_total"),
            ("reallocations", "reallocations"),
            ("reschedules", "reschedules"),
            ("fastpath_hits", "fastpath_hits"),
        ):
            delta = after[key] - before[key]
            setattr(self, attr, getattr(self, attr) + repeats * delta)
        before_links = before["link_stats"]
        for edge, (nbytes, nflows) in after["link_stats"].items():
            prior = before_links.get(edge, (0.0, 0))
            stats = self._link_stats[edge]
            stats[0] += repeats * (nbytes - prior[0])
            stats[1] += repeats * (nflows - prior[1])
        before_choices = before["path_choices"]
        for pair, counts in after["path_choices"].items():
            prior = before_choices.get(pair, {})
            target = self._path_choices.setdefault(pair, {})
            for index, count in counts.items():
                delta = count - prior.get(index, 0)
                if delta:
                    target[index] = target.get(index, 0) + repeats * delta

    def network_summary(self, total_time: Optional[float] = None) -> Dict:
        """JSON-safe summary of routing choices and per-link congestion.

        Deterministic: links, pairs, and candidate indices are emitted in
        sorted order.  Per-link entries count delivered bytes, flows
        carried, and peak concurrent flows; ``utilization`` (mean offered
        load as a fraction of capacity) is added when *total_time* is
        given.  ``path_choices`` records, for every pair that had more
        than one candidate path, how many flows took each candidate — the
        per-flow route record that lands in :class:`SimulationResult`.
        """
        links: Dict[str, Dict[str, float]] = {}
        max_peak = 0
        hottest = None
        for edge in sorted(self._link_stats):
            nbytes, flows, peak = self._link_stats[edge]
            name = f"{edge[0]}->{edge[1]}"
            entry: Dict[str, float] = {
                "bytes": nbytes, "flows": flows, "peak_flows": peak,
            }
            if total_time is not None and total_time > 0:
                bandwidth = self.topology[edge[0]][edge[1]]["bandwidth"]
                entry["utilization"] = nbytes / (bandwidth * total_time)
            links[name] = entry
            if peak > max_peak:
                max_peak = peak
                hottest = name
        fct: Dict[str, float] = {"count": self._fct_count}
        if self._fct_count:
            fct["total"] = self._fct_total
            fct["mean"] = self._fct_total / self._fct_count
            fct["min"] = self._fct_min
            fct["max"] = self._fct_max
        strategy = self.routing
        return {
            "routing": strategy.name if strategy is not None else "shortest",
            "routing_seed": strategy.seed if strategy is not None else 0,
            "flows_delivered": self.delivered_count,
            "bytes_delivered": self.total_bytes_delivered,
            "multipath_pairs": sum(
                1 for c in self._candidate_cache.values() if len(c) > 1),
            "path_choices": {
                f"{src}->{dst}": {
                    str(index): count
                    for index, count in sorted(counts.items())
                }
                for (src, dst), counts in sorted(self._path_choices.items())
            },
            "fct": fct,
            "links": links,
            "max_peak_flows": max_peak,
            "most_loaded_link": hottest,
        }
