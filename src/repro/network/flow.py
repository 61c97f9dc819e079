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
   capacities (progressive filling), solved per contention component:
   per-edge user sets scope each re-allocation to the components touched
   by the flows that joined or left, so disjoint traffic keeps its rates
   untouched, and a flow that shares no link takes its route's
   bottleneck capacity without a solve.
3. **Progress update** — flows whose rate actually changed have their
   remaining bytes settled and their delivery event rescheduled; flows
   whose rate is unchanged keep their existing heap entry (the
   rate-stability fast path — no cancel storm).
4. **Delivery** — at the delivery event, the callback fires and bandwidth
   is re-allocated for the component the flow leaves behind.

Path latency is paid once, up front: a flow joins the bandwidth allocation
after its route latency elapses.

Directed edges and candidate paths are interned to ints when a route is
first built: per-edge state lives in lists indexed by edge id, and a
route id carries its edge-id tuple, summed latency and cached bottleneck.
Per-flow state lives in columns indexed by a slot that is recycled at
delivery, so the columns grow with peak concurrent flows; the
:class:`~repro.network.base.Transfer` that :meth:`FlowNetwork.send`
returns is the only per-flow object.  The component solvers are pure
functions in :mod:`repro.network.maxmin`.  Why scoped allocation
reproduces the dense allocator kept in ``tests/dense_network.py``
(the differential oracle) is in ``docs/network.md``.
"""

from __future__ import annotations

import itertools
import math
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Set, Tuple, Union)

import networkx as nx

from repro.engine.engine import Engine
from repro.engine.events import Event
from repro.engine.hooks import HookCtx, Hookable
from repro.network.base import Transfer
from repro.network.maxmin import _RATE_EPS, EdgeIds, maxmin_rates
from repro.network.routing import (
    RoutingStrategy,
    ShortestPathRouting,
    get_routing_strategy,
)

#: Hook positions for observers.
HOOK_FLOW_START = "flow_start"
HOOK_FLOW_DELIVER = "flow_deliver"
#: Fired after every bandwidth reallocation with the solved flows (as
#: :class:`FlowView` records) and the topology in the detail — the
#: link-capacity sanitizer's feed.  The list holds the re-solved
#: contention component(s); component closure guarantees every user of
#: every link those flows touch is present, so per-link rate sums stay
#: complete.
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


class FlowView(NamedTuple):
    """Read-only snapshot of one flow, built for hook payloads only.

    ``route`` is the flow's directed edge list (empty for local and
    zero-byte transfers) and ``rate`` its allocated bytes/s at the
    moment the hook fires.
    """

    transfer: Transfer
    rate: float
    route: List[DirectedEdge]

    @property
    def src(self) -> str:
        return self.transfer.src

    @property
    def dst(self) -> str:
        return self.transfer.dst


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
        # Per-edge state, indexed by edge id: live capacity (shadowing
        # the topology attribute, which networkx serves through an
        # AtlasView per access; set_link_capacity writes both), active
        # flow slots, flows routed onto the edge but not yet active,
        # delivered bytes, flows carried, peak concurrent flows, and the
        # ids of the routes crossing it.
        self._edge_ids: Dict[DirectedEdge, int] = {}
        self._cap: List[float] = []
        self._users: List[Set[int]] = []
        self._committed: List[int] = []
        self._bytes: List[float] = []
        self._flows: List[int] = []
        self._peak: List[int] = []
        self._edge_routes: List[List[int]] = []
        # Per-route state, indexed by route id: edge ids, the public edge
        # list, summed latency and bottleneck capacity.
        self._route_ids: Dict[EdgeIds, int] = {}
        self._route_edges: List[EdgeIds] = []
        self._route_list: List[List[DirectedEdge]] = []
        self._latency: List[float] = []
        self._bottleneck: List[float] = []
        # Per pair: the legacy shortest path's route id; the candidate
        # edge lists and route ids (shortest first, the rest sorted); the
        # route of pairs with no choice to make (shortest-path routing,
        # single candidates); a static strategy's chosen index; and the
        # flows sent down each candidate of multi-candidate pairs.
        self._primary: Dict[Tuple[str, str], int] = {}
        self._candidates: Dict[Tuple[str, str], Tuple[
            List[List[DirectedEdge]], List[int]]] = {}
        self._fixed: Dict[Tuple[str, str], int] = {}
        self._choice_cache: Dict[Tuple[str, str], int] = {}
        self._path_choices: Dict[Tuple[str, str], Dict[int, int]] = {}
        # Per-flow columns, indexed by slot; delivered flows free theirs.
        self._xfer: List[Optional[Transfer]] = []
        self._tid: List[int] = []
        self._route: List[int] = []
        self._remaining: List[float] = []
        self._rate: List[float] = []
        self._settled: List[float] = []
        self._event: List[Optional[Event]] = []
        self._columns = (self._xfer, self._tid, self._route, self._remaining,
                         self._rate, self._settled, self._event)
        self._free: List[int] = []
        self._active: Set[int] = set()
        # Edges whose users or capacity changed since the last
        # reallocation; their users seed the next component walk.
        self._dirty: Set[int] = set()
        # Flow-completion-time accumulators (wire flows only).
        self._fct_count = 0
        self._fct_total = 0.0
        self._fct_min = math.inf
        self._fct_max = 0.0
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
    # Interning
    # ------------------------------------------------------------------
    def _edge_id(self, edge: DirectedEdge) -> int:
        eid = self._edge_ids.get(edge)
        if eid is None:
            u, v = edge
            eid = self._edge_ids[edge] = len(self._cap)
            self._cap.append(self.topology[u][v]["bandwidth"])
            self._users.append(set())
            self._committed.append(0)
            self._bytes.append(0.0)
            self._flows.append(0)
            self._peak.append(0)
            self._edge_routes.append([])
        return eid

    def _intern_route(self, edges: List[DirectedEdge]) -> int:
        """Route id of an edge list, interning it on first sight."""
        eids = tuple(self._edge_id(edge) for edge in edges)
        rid = self._route_ids.get(eids)
        if rid is None:
            rid = self._route_ids[eids] = len(self._route_edges)
            self._route_edges.append(eids)
            self._route_list.append(edges)
            topology = self.topology
            # Link latencies never change at runtime (faults degrade
            # bandwidth, not latency).
            self._latency.append(
                sum(topology[u][v]["latency"] for u, v in edges))
            self._bottleneck.append(
                min((self._cap[e] for e in eids), default=math.inf))
            for eid in eids:
                self._edge_routes[eid].append(rid)
        return rid

    # ------------------------------------------------------------------
    # Step 1: routing
    # ------------------------------------------------------------------
    def _primary_id(self, src: str, dst: str) -> int:
        key = (src, dst)
        rid = self._primary.get(key)
        if rid is None:
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
            rid = self._primary[key] = self._intern_route(edges)
            reverse = (dst, src)
            if reverse not in self._primary:
                self._primary[reverse] = self._intern_route(
                    [(v, u) for u, v in reversed(edges)])
        return rid

    def route(self, src: str, dst: str) -> List[DirectedEdge]:
        """Directed edge list of the cached shortest path src -> dst.

        Computing a path also populates the reverse pair with the mirrored
        edge list — paths are symmetric on our undirected topologies, so
        collectives (which nearly always talk both ways across a pair) pay
        for each route search once.

        Raises :class:`RoutingError` naming the pair when either endpoint
        is missing from the topology or no path connects them.
        """
        return self._route_list[self._primary_id(src, dst)]

    def path_latency(self, src: str, dst: str) -> float:
        """Sum of link latencies along the route (see :meth:`route` for
        the error raised on disconnected pairs)."""
        return self._latency[self._primary_id(src, dst)]

    def link_bandwidth(self, edge: DirectedEdge) -> float:
        """Live capacity of a directed edge.

        Reflects fault degradation immediately (see
        :meth:`set_link_capacity`); reads the topology only on first
        touch per edge.
        """
        return self._cap[self._edge_id(edge)]

    def _candidate_entry(self, src: str, dst: str
                         ) -> Tuple[List[List[DirectedEdge]], List[int]]:
        key = (src, dst)
        entry = self._candidates.get(key)
        if entry is None:
            primary = self._primary_id(src, dst)  # validates the pair
            ids = [primary]
            if self._route_edges[primary]:
                paths = itertools.islice(
                    nx.all_shortest_paths(self.topology, src, dst),
                    self.max_candidate_paths,
                )
                for path in sorted(paths):
                    rid = self._intern_route(list(zip(path, path[1:])))
                    if rid != primary:
                        ids.append(rid)
            entry = self._candidates[key] = (
                [self._route_list[rid] for rid in ids], ids)
        return entry

    def candidate_routes(self, src: str, dst: str) -> List[List[DirectedEdge]]:
        """All equal-cost shortest paths src -> dst, as directed edge lists.

        The first candidate is always the legacy :meth:`route` path, so
        index 0 reproduces pre-multipath behavior exactly; the remaining
        candidates follow in lexicographically sorted order.  Enumeration
        is capped at :attr:`max_candidate_paths` (deterministically — the
        cap keeps a sorted prefix).  The list is cached per pair.
        """
        return self._candidate_entry(src, dst)[0]

    def route_loads(self, src: str, dst: str
                    ) -> List[List[Tuple[int, float]]]:
        """Per-edge ``(flows, capacity)`` along every candidate path of
        src -> dst, in :meth:`candidate_routes` order.

        ``flows`` counts the edge's active flows plus the flows routed
        onto it that are still inside their send -> activate latency
        window (so a wave issued at one instant sees its own earlier
        members); ``capacity`` is the live bandwidth.  This is the
        allocator state routing strategies may read.
        """
        users = self._users
        committed = self._committed
        cap = self._cap
        route_edges = self._route_edges
        return [[(len(users[e]) + committed[e], cap[e])
                 for e in route_edges[rid]]
                for rid in self._candidate_entry(src, dst)[1]]

    def _route_for(self, src: str, dst: str) -> int:
        """Route a new flow whose pair is not in :attr:`_fixed`.

        ``None`` / shortest-path routing short-circuits to the legacy
        path; pairs with a single candidate always take it (the
        bit-identity guarantee for single-path topologies).  Both are
        then pinned in :attr:`_fixed`, so later flows of the pair resolve
        in one lookup.  Otherwise the strategy chooses, with the choice
        cached per pair for static strategies and re-made per flow for
        dynamic ones, and counted in the path-choice record.
        """
        key = (src, dst)
        strategy = self.routing
        if strategy is None or isinstance(strategy, ShortestPathRouting):
            rid = self._fixed[key] = self._primary_id(src, dst)
            return rid
        candidates, ids = self._candidate_entry(src, dst)
        if len(ids) == 1:
            rid = self._fixed[key] = ids[0]
            return rid
        if strategy.dynamic:
            index = strategy.choose(src, dst, candidates, self)
        else:
            index = self._choice_cache.get(key, -1)
            if index < 0:
                index = strategy.choose(src, dst, candidates, self)
                self._choice_cache[key] = index
        if not 0 <= index < len(ids):
            raise ValueError(
                f"routing strategy {strategy.name!r} chose path {index} "
                f"for {src}->{dst}, out of range for "
                f"{len(ids)} candidates"
            )
        counts = self._path_choices.setdefault(key, {})
        counts[index] = counts.get(index, 0) + 1
        return ids[index]

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
        rid = self._fixed.get((src, dst))
        if rid is None:
            rid = self._route_for(src, dst)  # validates endpoints
        # engine._now read directly on the per-flow paths in this module:
        # the .now property costs a descriptor call per access.
        now = self.engine._now
        transfer_id = next(self._ids)
        nbytes = float(nbytes)
        transfer = Transfer(transfer_id, src, dst, nbytes, callback, tag, now)
        edges = self._route_edges[rid]
        wired = bool(edges) and nbytes != 0
        if self._hooks:
            self.invoke_hooks(HookCtx(HOOK_FLOW_START, now, FlowView(
                transfer, 0.0, self._route_list[rid] if wired else [])))
        if not wired:
            # Local move: no wire time; deliver via a zero-delay event so
            # callback ordering stays consistent with real transfers.
            event = Event(now + 0.0, self._deliver_local, transfer)
        else:
            free = self._free
            if not free:
                free.append(len(self._xfer))
                for column in self._columns:
                    column.append(None)
            slot = free.pop()
            self._xfer[slot] = transfer
            self._tid[slot] = transfer_id
            self._route[slot] = rid
            self._remaining[slot] = nbytes
            self._rate[slot] = 0.0
            committed = self._committed
            for eid in edges:
                committed[eid] += 1
            event = Event(now + self._latency[rid], self._activate, slot)
        if pending is None:
            self.engine.schedule(event)
        else:
            pending.append(event)
        return transfer

    @property
    def active_flows(self) -> int:
        return len(self._active)

    def set_link_capacity(self, u: str, v: str, bandwidth: float) -> None:
        """Re-rate the undirected link *u*—*v* to *bandwidth* bytes/s.

        The fault injector's link-degradation primitive: mutates the
        topology's edge attribute, refreshes the cached bottleneck of
        every route crossing the link, then reuses the scoped re-solve —
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
        cap = self._cap
        for edge in ((u, v), (v, u)):
            eid = self._edge_id(edge)
            cap[eid] = value
            for rid in self._edge_routes[eid]:
                self._bottleneck[rid] = min(
                    cap[e] for e in self._route_edges[rid])
            if self._users[eid]:
                self._dirty.add(eid)
        if self._active:
            self._request_reallocate()

    def stall(self, delay: float) -> None:
        """Freeze every active flow's progress for *delay* seconds.

        Companion to :meth:`Engine.defer_pending`: deferring a delivery
        event postpones *when* a flow completes, but a later rate change
        would still settle ``remaining -= rate * (now - settled)`` as if
        the flow had kept transferring through the outage.  Settling
        progress up to now and advancing the settle time past the stall
        window makes the outage transfer zero bytes.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        now = self.engine.now
        remaining, rate, settled = self._remaining, self._rate, self._settled
        for slot in self._active:
            left = remaining[slot] - rate[slot] * (now - settled[slot])
            if left < 0.0:
                left = 0.0
            remaining[slot] = left
            settled[slot] = now + delay

    # ------------------------------------------------------------------
    # Steps 2-3: allocation and progress updates
    # ------------------------------------------------------------------
    def _activate(self, event: Event) -> None:
        slot = event.payload
        self._settled[slot] = self.engine._now
        self._active.add(slot)
        committed = self._committed
        users = self._users
        flows = self._flows
        peak = self._peak
        edges = self._route_edges[self._route[slot]]
        for eid in edges:
            committed[eid] -= 1
            holders = users[eid]
            holders.add(slot)
            flows[eid] += 1
            if len(holders) > peak[eid]:
                peak[eid] = len(holders)
        self._dirty.update(edges)
        if not self._realloc_pending:
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
        seeds = set(itertools.chain.from_iterable(
            map(self._users.__getitem__, self._dirty)))
        self._dirty.clear()
        if not seeds:
            return
        solved = self._solve(seeds)
        rate = self._rate
        events = self._event
        changed: List[Tuple[int, float]] = []
        for members, rates in solved:
            for slot, new in zip(members, rates):
                event = events[slot]
                if (new == rate[slot] and event is not None
                        and not event.cancelled):
                    # Rate-stability fast path: the rate is exactly
                    # unchanged, so the existing heap entry stays put.
                    self.fastpath_hits += 1
                else:
                    changed.append((slot, new))
        self._install(changed, solved)

    def _solve(self, seeds: Iterable[int]
               ) -> List[Tuple[List[int], Sequence[float]]]:
        """Max-min rates of the contention components of *seeds*.

        Returns ``(member slots, rates)`` per component in canonical
        order — ascending by smallest member transfer id, members
        ascending within — so a component re-solves with the same
        floating-point operations whichever change dirtied it.  A flow
        that is the only user of every edge of its route takes its
        route's cached bottleneck without a search or solver call:
        progressive filling would saturate the bottleneck edge in its
        first round (``cap - cap == 0.0``) with increment
        ``min(capacity)``.
        """
        route = self._route
        route_edges = self._route_edges
        bottleneck = self._bottleneck
        users = self._users
        tid = self._tid
        keyed: List[Tuple[int, List[int], Sequence[float]]] = []
        visited: Set[int] = set()
        in_order = True
        for seed in sorted(seeds, key=tid.__getitem__):
            if seed in visited:
                continue
            edges = route_edges[route[seed]]
            for eid in edges:
                if len(users[eid]) != 1:
                    break
            else:  # alone on every edge: no other flow can reach it
                keyed.append((tid[seed], [seed], (bottleneck[route[seed]],)))
                continue
            members = self._component(seed)
            visited.update(members)
            rates = maxmin_rates([route_edges[route[slot]] for slot in members],
                                 self._cap, self._warn_allocator)
            keyed.append((tid[members[0]], members, rates))
            # A component's smallest member need not be a seed, so seed
            # order alone cannot always order components.
            in_order = in_order and members[0] == seed
        if not in_order:
            keyed.sort(key=lambda entry: entry[0])
        return [(members, rates) for _, members, rates in keyed]

    def _install(self, changed: List[Tuple[int, float]],
                 solved: List[Tuple[List[int], Sequence[float]]]) -> None:
        """Install each ``(slot, rate)`` of *changed*: settle progress at
        the old rate, set the new one and reschedule the delivery, then
        report every flow of *solved* to the reallocation hook."""
        engine = self.engine
        now = engine._now
        rate = self._rate
        remaining = self._remaining
        settled = self._settled
        events = self._event
        deliver = self._deliver
        pending: List[Event] = []
        for slot, new in changed:
            left = remaining[slot] - rate[slot] * (now - settled[slot])
            if left < 0.0:
                left = 0.0
            remaining[slot] = left
            settled[slot] = now
            rate[slot] = new
            event = events[slot]
            if new > _RATE_EPS:
                if event is not None and not event.cancelled:
                    # Requeue the existing delivery event instead of
                    # cancel-and-replace: mark_requeued orphans the old
                    # heap entry (skipped silently, never observed) and
                    # the bulk insert stamps a fresh sequence number.
                    engine.mark_requeued(event)
                    event.time = now + left / new
                else:
                    event = events[slot] = Event(now + left / new, deliver,
                                                 slot)
                pending.append(event)
            elif event is not None:
                event.cancel()
                events[slot] = None
        # One bulk insert for the whole reschedule wave.  Sequence
        # numbers are assigned in list order — the same order per-flow
        # heappushes would use — and nothing dispatches between
        # collection and insertion, so delivery order is unchanged.
        if pending:
            self.reschedules += len(pending)
            engine.schedule_bulk(pending)
        if self._hooks:
            self.invoke_hooks(HookCtx(
                HOOK_FLOW_REALLOC, now,
                [self._view(slot) for members, _ in solved
                 for slot in members],
                detail={"topology": self.topology},
            ))

    def _component(self, seed: int) -> List[int]:
        """The seed's contention component (BFS over per-edge users),
        sorted by transfer id."""
        users = self._users
        route = self._route
        route_edges = self._route_edges
        members = {seed}
        stack = [seed]
        seen: Set[int] = set()
        while stack:
            for eid in route_edges[route[stack.pop()]]:
                if eid in seen:
                    continue
                seen.add(eid)
                for other in users[eid]:
                    if other not in members:
                        members.add(other)
                        stack.append(other)
        return sorted(members, key=self._tid.__getitem__)

    def _view(self, slot: int) -> FlowView:
        return FlowView(self._xfer[slot], self._rate[slot],
                        self._route_list[self._route[slot]])

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
    def _deliver(self, event: Event) -> None:
        """Deliver an active wired flow: tear down its edge users, free
        its slot and fire its callback."""
        slot = event.payload
        now = self.engine._now
        transfer = self._xfer[slot]
        transfer.deliver_time = now
        nbytes = transfer.nbytes
        active = self._active
        active.remove(slot)
        users = self._users
        link_bytes = self._bytes
        edges = self._route_edges[self._route[slot]]
        for eid in edges:
            users[eid].discard(slot)
            link_bytes[eid] += nbytes
        if active:
            self._dirty.update(edges)
            if not self._realloc_pending:
                self._request_reallocate()
        else:
            self._dirty.clear()
        self.delivered_count += 1
        self.total_bytes_delivered += nbytes
        fct = now - transfer.start_time
        self._fct_count += 1
        self._fct_total += fct
        if fct < self._fct_min:
            self._fct_min = fct
        if fct > self._fct_max:
            self._fct_max = fct
        if self._hooks:
            self.invoke_hooks(HookCtx(HOOK_FLOW_DELIVER, now,
                                      self._view(slot)))
        self._xfer[slot] = None
        self._event[slot] = None
        self._free.append(slot)
        transfer.callback(transfer)

    def _deliver_local(self, event: Event) -> None:
        """Deliver a local or zero-byte transfer (no wire, no slot)."""
        transfer = event.payload
        transfer.deliver_time = self.engine._now
        self.delivered_count += 1
        self.total_bytes_delivered += transfer.nbytes
        if self._hooks:
            self.invoke_hooks(HookCtx(HOOK_FLOW_DELIVER, self.engine._now,
                                      FlowView(transfer, 0.0, [])))
        transfer.callback(transfer)

    # ------------------------------------------------------------------
    # Congestion / routing metrics
    # ------------------------------------------------------------------
    def _loaded_edges(self) -> List[Tuple[DirectedEdge, int]]:
        """``(edge, edge id)`` of every edge that has carried a flow."""
        flows = self._flows
        return [(edge, eid) for edge, eid in self._edge_ids.items()
                if flows[eid]]

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
            "link_stats": {edge: (self._bytes[eid], self._flows[eid])
                           for edge, eid in self._loaded_edges()},
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
            eid = self._edge_ids[edge]
            self._bytes[eid] += repeats * (nbytes - prior[0])
            self._flows[eid] += repeats * (nflows - prior[1])
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
        for edge, eid in sorted(self._loaded_edges()):
            nbytes, peak = self._bytes[eid], self._peak[eid]
            name = f"{edge[0]}->{edge[1]}"
            entry: Dict[str, float] = {
                "bytes": nbytes, "flows": self._flows[eid],
                "peak_flows": peak,
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
                1 for _, ids in self._candidates.values() if len(ids) > 1),
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
