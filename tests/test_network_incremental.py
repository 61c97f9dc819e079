"""Tests for the incremental max-min allocator and churn-free rescheduling.

Three layers of evidence that the optimization is behavior-preserving,
all against the dense oracle kept in ``tests/dense_network.py``:

* a **differential property test** — on randomized topologies, flow
  sets and fault-injector capacity degradations, the scalar and numpy
  component solvers agree exactly and both reproduce the dense
  reference allocator's rates (within 1e-9 relative);
* an **end-to-end property test** — full simulations under the scoped
  allocator deliver every flow at the same time (within 1e-9) as under
  the dense network;
* a **determinism test** — ``SimulationResult`` is bit-identical across
  the two networks on the 16-point DDP sweep grid.

Plus the churn regression: staggered node-local ring all-reduces on 16
and 64 GPUs run the same simulated time and event count on both
networks, with no cancellations under the scoped allocator against a
pinned count under the dense one; and the contention-free path: a
flow alone on its links gets the scalar solver's rate without a solve,
including after its link is re-rated.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.simulator as simulator_mod
import repro.network.flow as flow_mod
import repro.network.maxmin as maxmin_mod
from tests.dense_network import (
    DenseFlowNetwork,
    all_components,
    maxmin_rates_reference,
)
from repro.collectives.ring import ring_all_reduce
from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.faults.spec import FaultSpec, Straggler
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.topology import (
    build_topology,
    fat_tree,
    gpu_names,
    mesh2d,
    multi_node,
    node_groups,
    ring,
    switch,
)
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model
from tests.task_table import task_table_digest

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _flow_routes(net, pairs):
    """``{flow id: directed edge list}`` for every pair with a wire, from
    the network's public routes (local pairs carry no flow)."""
    routes = {}
    for i, (src, dst) in enumerate(pairs):
        route = net.route(src, dst)
        if route:
            routes[i] = route
    return routes


def _edge_ids(net, routes):
    """Solver input for *routes* (a sequence of directed edge lists):
    edge-id tuples plus the capacity list, with capacities read live
    from the network."""
    edge_ids, capacity, out = {}, [], []
    for route in routes:
        ids = []
        for edge in route:
            if edge not in edge_ids:
                edge_ids[edge] = len(capacity)
                capacity.append(net.link_bandwidth(edge))
            ids.append(edge_ids[edge])
        out.append(tuple(ids))
    return out, capacity


def _topology(draw):
    kind = draw(st.sampled_from(["ring", "switch", "mesh2d", "fat_tree",
                                 "multi_node"]))
    bandwidth = draw(st.sampled_from([1.0, 3.0, 25e9, 100e9, 123.456]))
    if kind == "ring":
        return ring(draw(st.integers(2, 9)), bandwidth)
    if kind == "switch":
        return switch(draw(st.integers(2, 9)), bandwidth)
    if kind == "mesh2d":
        return mesh2d(draw(st.integers(1, 3)), draw(st.integers(2, 4)),
                      bandwidth)
    if kind == "fat_tree":
        return fat_tree(draw(st.integers(4, 10)), bandwidth)
    return multi_node(draw(st.integers(2, 3)), draw(st.integers(2, 4)),
                      intra_bandwidth=bandwidth, inter_bandwidth=bandwidth / 4)


@st.composite
def _random_case(draw):
    topology = _topology(draw)
    gpus = [n for n in topology.nodes if n.startswith("gpu")]
    num_flows = draw(st.integers(1, 12))
    pairs = [
        (gpus[draw(st.integers(0, len(gpus) - 1))],
         gpus[draw(st.integers(0, len(gpus) - 1))])
        for _ in range(num_flows)
    ]
    return topology, pairs


@st.composite
def _degradations(draw, topology):
    """Fault-injector style link re-ratings: a few links cut to a
    fraction of their capacity."""
    links = sorted(topology.edges())
    return [
        (links[draw(st.integers(0, len(links) - 1))],
         draw(st.sampled_from([0.5, 1 / 3, 0.1, 0.02])))
        for _ in range(draw(st.integers(0, 3)))
    ]


def _solver_rates(net, routes, component):
    """The component's rates (in member order) from the dispatcher and
    from each solver."""
    solver_input = (*_edge_ids(net, [routes[fid] for fid in component]),
                    lambda message, **detail: None)
    return (maxmin_mod.maxmin_rates(*solver_input),
            maxmin_mod.maxmin_scalar(*solver_input),
            maxmin_mod.maxmin_vector(*solver_input))


# ----------------------------------------------------------------------
# Differential: incremental solver vs dense reference allocator
# ----------------------------------------------------------------------


class TestDifferentialAllocator:
    @given(case=_random_case(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_component_solver_matches_reference(self, case, data):
        topology, pairs = case
        net = FlowNetwork(Engine(), topology)
        routes = _flow_routes(net, pairs)
        if not routes:
            return
        for (u, v), factor in data.draw(_degradations(topology)):
            net.set_link_capacity(u, v, topology[u][v]["bandwidth"] * factor)
        reference = maxmin_rates_reference(topology, routes)
        solved = {}
        components = all_components(routes)
        for component in components:
            dispatched, scalar, vector = _solver_rates(net, routes,
                                                       component)
            # Either side of _VECTOR_MIN_FLOWS, the two solvers are
            # interchangeable bit for bit.
            assert scalar == vector
            assert dispatched == scalar
            solved.update(zip(component, scalar))
        assert set(solved) == set(reference)
        for fid, rate in solved.items():
            assert math.isclose(rate, reference[fid], rel_tol=1e-9,
                                abs_tol=1e-9), (
                f"flow {fid}: incremental {rate!r} vs reference "
                f"{reference[fid]!r}"
            )
        # The partition covers every flow exactly once.
        assert sorted(fid for c in components for fid in c) == \
            sorted(routes)

    @given(case=_random_case())
    @settings(max_examples=60, deadline=None)
    def test_component_rates_conserve_capacity(self, case):
        topology, pairs = case
        net = FlowNetwork(Engine(), topology)
        routes = _flow_routes(net, pairs)
        if not routes:
            return
        rates = {}
        for component in all_components(routes):
            rates.update(zip(component,
                             _solver_rates(net, routes, component)[0]))
        loads = {}
        for fid, route in routes.items():
            for edge in route:
                loads[edge] = loads.get(edge, 0.0) + rates[fid]
        for (u, v), load in loads.items():
            assert load <= topology[u][v]["bandwidth"] * (1 + 1e-6) + 1e-9
        # Progressive filling starves nobody.
        assert all(rate > 0.0 for rate in rates.values())

    def test_components_are_link_disjoint(self):
        net = FlowNetwork(Engine(), mesh2d(1, 6, bandwidth=10.0))
        routes = _flow_routes(net, [("gpu0", "gpu2"), ("gpu1", "gpu2"),
                                    ("gpu3", "gpu5"), ("gpu4", "gpu5")])
        components = all_components(routes)
        assert len(components) == 2
        edge_sets = [
            {edge for fid in component for edge in routes[fid]}
            for component in components
        ]
        assert not (edge_sets[0] & edge_sets[1])


# ----------------------------------------------------------------------
# End-to-end: delivery times match the dense network
# ----------------------------------------------------------------------


def _network(engine, topology, dense):
    return (DenseFlowNetwork if dense else FlowNetwork)(engine, topology)


def _replay(topology, actions, dense):
    """Play *actions* on a fresh network: ``{action index: delivery
    time}`` for its sends and the events dispatched.

    An action is ``("send", at, src, dst, nbytes)``, ``("rerate", at,
    (u, v), factor)`` — a fault injector's link degradation — or
    ``("stall", at, delay)`` — its checkpoint stall, which defers every
    queued event, sends included, then freezes flow progress.  Like the
    injector's fault arrivals, re-ratings and stalls keep their times.
    """
    engine = Engine()
    topology = topology.copy()
    net = _network(engine, topology, dense)
    done = {}
    faults = []

    def act(key, kind, *args):
        if kind == "send":
            src, dst, nbytes = args
            net.send(src, dst, nbytes,
                     lambda t: done.setdefault(key, engine.now))
        elif kind == "rerate":
            (u, v), factor = args
            net.set_link_capacity(u, v, topology[u][v]["bandwidth"] * factor)
        else:
            engine.defer_pending(args[0], exclude=tuple(faults))
            net.stall(args[0])

    for key, (kind, at, *args) in enumerate(actions):
        event = engine.call_at(
            at, lambda ev, k=key, kind=kind, a=args: act(k, kind, *a))
        if kind != "send":
            faults.append(event)
    engine.run()
    assert net.active_flows == 0 and not any(net._committed)
    return done, engine.dispatched_events


class TestEndToEndEquivalence:
    @given(case=_random_case(),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_delivery_times_match_dense_mode(self, case, data):
        """Random sends, with links re-rated mid-run by fault-injector
        style degradations: the scoped allocator's cached route
        bottlenecks must follow the live capacities the dense network
        solves with."""
        topology, pairs = case
        actions = []
        for src, dst in pairs:
            start = data.draw(st.floats(min_value=0.0, max_value=2.0,
                                        allow_nan=False))
            nbytes = data.draw(st.floats(min_value=1.0, max_value=1e6))
            actions.append(("send", start, src, dst, nbytes))
        actions += [("rerate", data.draw(st.floats(min_value=0.0,
                                                   max_value=2.0,
                                                   allow_nan=False)),
                     link, factor)
                    for link, factor in data.draw(_degradations(topology))]
        fast, _ = _replay(topology, actions, dense=False)
        dense, _ = _replay(topology, actions, dense=True)
        assert set(fast) == set(dense)
        for key in fast:
            assert fast[key] == pytest.approx(dense[key], rel=1e-9, abs=1e-12)

    def test_disjoint_join_leaves_other_flow_untouched(self):
        """A flow joining a disjoint link must not cancel the in-flight
        delivery of an unrelated flow (the scoped-reallocation contract)."""
        engine = Engine()
        net = FlowNetwork(engine, mesh2d(1, 4, bandwidth=100.0,
                                         latency=0.0))
        done = {}
        net.send("gpu0", "gpu1", 100.0, lambda t: done.setdefault("a",
                                                                  engine.now))
        engine.call_after(0.5, lambda ev: net.send(
            "gpu2", "gpu3", 100.0, lambda t: done.setdefault("b", engine.now)))
        engine.run()
        assert done["a"] == pytest.approx(1.0)
        assert done["b"] == pytest.approx(1.5)
        assert engine.total_cancelled == 0
        # Both routes were idle: each flow is one delivery event, never
        # activated, solved or rescheduled.
        assert net.reschedules == net.reallocations == 0
        assert engine.dispatched_events == 3

    def test_shared_join_still_reschedules(self):
        engine = Engine()
        net = FlowNetwork(engine, ring(2, bandwidth=100.0, latency=0.0))
        done = {}
        net.send("gpu0", "gpu1", 100.0, lambda t: done.setdefault("a",
                                                                  engine.now))
        engine.call_after(0.5, lambda ev: net.send(
            "gpu0", "gpu1", 100.0, lambda t: done.setdefault("b", engine.now)))
        engine.run()
        # Same shares as the dense model: a at 1.5, b at 2.0.
        assert done["a"] == pytest.approx(1.5)
        assert done["b"] == pytest.approx(2.0)
        assert engine.total_cancelled >= 1  # a's delivery was rescheduled


# ----------------------------------------------------------------------
# Idle-route delivery: what materializes a flow sent onto an idle route
# ----------------------------------------------------------------------


#: gpu0 - gpu1 - gpu2 at 100 B/s, 0.5 s per hop.
LINE = mesh2d(1, 3, bandwidth=100.0, latency=0.5)
#: Alone, 170 bytes from gpu0 to gpu2 activate at 1.0 and arrive at
#: 1.0 + 1.7.  A stall of 0.1 at 1.0 must move the arrival to
#: (1.0 + 0.1) + 1.7, which differs from (1.0 + 1.7) + 0.1 in the last bit.
LONE = ("send", 0.0, "gpu0", "gpu2", 170.0)
#: Shares the gpu1 -> gpu2 edge with LONE.
SHARING = ("gpu1", "gpu2", 100.0)

IDLE_ROUTE_CASES = {
    "second-flow-before-activation": (LINE, [LONE, ("send", 0.25,
                                                    *SHARING)]),
    "second-flow-after-activation": (LINE, [LONE, ("send", 1.5, *SHARING)]),
    "second-flow-at-activation": (LINE, [LONE, ("send", 1.0, *SHARING)]),
    "stall-in-latency-window": (LINE, [LONE, ("stall", 0.5, 0.3)]),
    "stall-at-activation": (LINE, [LONE, ("stall", 1.0, 0.1)]),
    "stall-mid-transfer": (LINE, [LONE, ("stall", 2.0, 0.3),
                                  ("send", 2.5, *SHARING)]),
    "link-fault-in-latency-window": (LINE, [
        LONE, ("rerate", 0.5, ("gpu1", "gpu2"), 0.25)]),
    "link-fault-mid-transfer": (LINE, [
        LONE, ("rerate", 2.0, ("gpu2", "gpu1"), 0.25)]),
    "zero-latency-link": (mesh2d(1, 3, bandwidth=100.0, latency=0.0), [
        LONE, ("send", 0.0, *SHARING), ("send", 1.0, "gpu0", "gpu1", 50.0),
        ("send", 1.0, *SHARING)]),
}


class TestIdleRouteDelivery:
    """A flow sent onto an idle route is delivered by one event; when
    something touches one of its edges, it must continue exactly as the
    dense network's activated flow does."""

    def test_lone_flow_is_one_event(self):
        done, events = _replay(LINE, [LONE], dense=False)
        assert done == {0: 1.0 + 1.7}
        # The send action and the delivery.
        assert events == 2

    @pytest.mark.parametrize("case", sorted(IDLE_ROUTE_CASES))
    def test_delivery_times_match_dense(self, case):
        topology, actions = IDLE_ROUTE_CASES[case]
        scoped, scoped_events = _replay(topology, actions, dense=False)
        dense, dense_events = _replay(topology, actions, dense=True)
        assert scoped == dense
        assert len(scoped) == sum(kind == "send" for kind, *_ in actions)
        assert scoped_events <= dense_events

    def test_shared_edge_in_one_release_wave(self):
        """Two transfers released in one wave share an edge: the first
        is materialized while its event still waits in the wave, and is
        switched back to its activation in place — scheduled once, at
        its place in the wave."""
        outcomes = []
        for dense in (False, True):
            engine = Engine()
            net = _network(engine, LINE.copy(), dense)
            sim = TaskGraphSimulator(engine, net)
            sim.add_transfer("a", "gpu0", "gpu2", 200.0)
            sim.add_transfer("b", "gpu1", "gpu2", 100.0)
            sim.add_transfer("c", "gpu2", "gpu0", 150.0)  # idle route
            sim.run()
            assert engine.pending_events == 0
            assert net.active_flows == 0 and not any(net._committed)
            assert net.delivered_count == 3
            outcomes.append((task_table_digest(sim.store), sim.store.end,
                             engine.dispatched_events))
        (scoped, ends, scoped_events), (dense, _, dense_events) = outcomes
        assert scoped == dense
        assert ends == [3.5, 2.0, 2.5]
        # c's activation is the one event saved.
        assert (scoped_events, dense_events) == (dense_events - 1,
                                                 dense_events)


# ----------------------------------------------------------------------
# Churn regression: scoped reallocation cancels no delivery
# ----------------------------------------------------------------------


def _bucketed_all_reduce_churn(dense, nodes, per_node, intra, inter,
                               buckets):
    """Staggered node-local 8 MB gradient-bucket ring all-reduces on a
    multi-node cluster: ``(total, events, cancellations, end time per
    task)``."""
    engine = Engine()
    topology = multi_node(nodes, per_node, intra_bandwidth=intra,
                          inter_bandwidth=inter)
    net = _network(engine, topology, dense)
    sim = TaskGraphSimulator(engine, net)
    for node, group in enumerate(node_groups(nodes, per_node)):
        for bucket in range(buckets):
            gate = sim.add_compute(f"n{node}.g{bucket}", group[0],
                                   duration=bucket * 2e-4 + node * 3.7e-5)
            ring_all_reduce(sim, group, 8e6, deps=[gate],
                            tag=f"n{node}.b{bucket}")
    total = sim.run()
    return (total, engine.dispatched_events, engine.total_cancelled,
            task_table_digest(sim.store))


class TestChurnRegression:
    @pytest.mark.parametrize("cluster,total,tables,events,cancelled_dense", [
        ((4, 4, 100e9, 25e9, 3), 0.001059,
         ("98ad568d70d2e392", "ddd8ab65f4f15ac6"), (360, 720), 236),
        ((8, 8, 300e9, 50e9, 2), 0.0007786666666666676,
         ("0d01f083cc4d0ec4",) * 2, (2016, 4030), 1032),
    ], ids=["16-gpus", "64-gpus"])
    def test_ring_all_reduce_cancellation_budget(self, cluster, total,
                                                 tables, events,
                                                 cancelled_dense):
        scoped = _bucketed_all_reduce_churn(False, *cluster)
        dense = _bucketed_all_reduce_churn(True, *cluster)
        assert scoped[0] == dense[0] == total
        # Each side's task table, bit for bit.  On 16 GPUs five rows of
        # the dense run end an ulp apart: it settles the progress of
        # every flow at every reallocation.
        assert (scoped[3], dense[3]) == tables
        # Every ring hop finds its route idle: one delivery event per
        # transfer, against the dense network's activation, solve and
        # delivery.
        assert (scoped[1], dense[1]) == events
        # Node-local collectives are link-disjoint: scoped reallocation
        # must not cancel any delivery, while the dense allocator
        # reschedules every in-flight flow in the cluster at each wave.
        assert (dense[2], scoped[2]) == (cancelled_dense, 0)

    def test_single_collective_no_worse_than_dense(self):
        """One global ring all-reduce (fully coupled): churn must never
        exceed the legacy dense allocator's."""
        def run(dense):
            engine = Engine()
            net = _network(engine, ring(8, bandwidth=100e9), dense)
            sim = TaskGraphSimulator(engine, net)
            ring_all_reduce(sim, gpu_names(8), 64e6)
            total = sim.run()
            return total, engine.total_cancelled

        total_inc, cancelled_inc = run(dense=False)
        total_leg, cancelled_leg = run(dense=True)
        assert total_inc == pytest.approx(total_leg, rel=1e-9)
        assert cancelled_inc <= cancelled_leg


# ----------------------------------------------------------------------
# Determinism: bit-identical results across modes on the sweep grid
# ----------------------------------------------------------------------


GRID = [
    SimulationConfig(parallelism="ddp", num_gpus=n, link_bandwidth=bw,
                     collective_scheme=scheme)
    for n in (2, 4, 8, 16)
    for bw in (25e9, 100e9)
    for scheme in ("ring", "tree")
]


@pytest.fixture(scope="module")
def rn18_trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 32)


class TestDeterminism:
    def test_bit_identical_results_on_sweep_grid(self, rn18_trace,
                                                 monkeypatch):
        def run_grid(network_class):
            monkeypatch.setattr(simulator_mod, "FlowNetwork", network_class)
            payloads, events = [], []
            for config in GRID:
                result = TrioSim(rn18_trace, config,
                                 record_timeline=False).run()
                payload = result.to_dict()
                # Host timing, not simulation state.
                payload.pop("wall_time")
                payload.pop("profile")
                # What the run cost, not what it simulated.
                events.append(payload.pop("events"))
                payloads.append(payload)
            return payloads, events

        scoped, scoped_events = run_grid(FlowNetwork)
        dense, dense_events = run_grid(DenseFlowNetwork)
        assert scoped == dense
        # DDP steps send onto idle routes, which the dense network
        # activates and solves.
        assert all(mine < theirs
                   for mine, theirs in zip(scoped_events, dense_events))


# ----------------------------------------------------------------------
# The contention-free path: a flow alone on its links skips the solver
# ----------------------------------------------------------------------


class _SolverCalls:
    """Counts calls into the general component solver."""

    def __init__(self):
        self.sizes = []
        self._solve = flow_mod.maxmin_rates

    def __call__(self, routes, capacity, warn):
        self.sizes.append(len(routes))
        return self._solve(routes, capacity, warn)


class _SingletonCheck:
    """Reallocation observer: every solved flow that shares no
    link with the other solved flows is a component of its own (the
    payload is closed over link sharing), so the contention-free path
    set its rate — which must equal the scalar solver's rate for that
    singleton, bit for bit.  Contended components must each have cost
    exactly one general-solver call since the previous reallocation."""

    def __init__(self, net, solver_calls):
        self.net = net
        self.solver_calls = solver_calls
        self.singletons = 0

    def __call__(self, time, flows):
        users = {}
        for view in flows:
            for edge in view.route:
                users[edge] = users.get(edge, 0) + 1
        contended = 0
        for view in flows:
            if any(users[edge] > 1 for edge in view.route):
                contended += 1
                continue
            self.singletons += 1
            routes, capacity = _edge_ids(self.net, [view.route])
            assert [view.rate] == maxmin_mod.maxmin_scalar(
                routes, capacity, lambda message, **detail: None)
        solved = sum(self.solver_calls.sizes)
        assert solved == contended
        assert 1 not in self.solver_calls.sizes
        self.solver_calls.sizes.clear()


class _RateLog:
    """Reallocation observer recording every solved rate."""

    def __init__(self, rates):
        self.rates = rates

    def __call__(self, time, flows):
        self.rates.extend(view.rate for view in flows)


class TestContentionFreePath:
    @given(case=_random_case(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rate_equals_scalar_solver_for_singletons(self, case, data):
        topology, pairs = case
        engine = Engine()
        net = FlowNetwork(engine, topology)
        for (u, v), factor in data.draw(_degradations(topology)):
            net.set_link_capacity(u, v, topology[u][v]["bandwidth"] * factor)
        calls = _SolverCalls()
        check = _SingletonCheck(net, calls)
        net.realloc_observers.append(check)
        for src, dst in pairs:
            start = data.draw(st.floats(min_value=0.0, max_value=2.0,
                                        allow_nan=False))
            nbytes = data.draw(st.floats(min_value=1.0, max_value=1e6))
            engine.call_at(start, lambda ev, s=src, d=dst, n=nbytes:
                           net.send(s, d, n, lambda t: None))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(flow_mod, "maxmin_rates", calls)
            engine.run()
        assert net.active_flows == 0
        assert net.delivered_count == len(pairs)

    def test_degraded_link_reaches_a_lone_flow(self):
        """Re-rating a link under a lone in-flight flow refreshes the
        cached bottleneck of every route crossing it, in both
        directions: the flow's next rate and delivery time, and later
        lone flows, use the new capacity."""
        engine = Engine()
        net = FlowNetwork(engine, mesh2d(1, 3, bandwidth=100.0,
                                         latency=0.0))
        check = _SingletonCheck(net, _SolverCalls())
        net.realloc_observers.append(check)
        rates = []
        net.realloc_observers.append(_RateLog(rates))
        done = {}

        def send(key, src, dst):
            net.send(src, dst, 100.0,
                     lambda t: done.setdefault(key, engine.now))

        send("first", "gpu0", "gpu2")
        engine.call_at(0.5, lambda ev: net.set_link_capacity(
            "gpu1", "gpu2", 25.0))
        engine.call_at(3.0, lambda ev: send("again", "gpu0", "gpu2"))
        engine.call_at(8.0, lambda ev: send("reverse", "gpu2", "gpu0"))
        engine.run()
        # 50 bytes left at t=0.5, then 25 B/s: 2 s more.
        assert done["first"] == 2.5
        assert done["again"] == 7.0
        assert done["reverse"] == 12.0
        assert rates == [100.0, 25.0, 25.0, 25.0]
        assert check.singletons == 4
        assert net.link_bandwidth(("gpu2", "gpu1")) == 25.0

    def test_general_solver_runs_only_under_contention(self, rn18_trace,
                                                       monkeypatch):
        """On the quick ``exact_fabric`` configuration no two flows ever
        share a link, so every rate comes from the contention-free path;
        the quick ``fabric_storm`` rings do contend."""
        calls = _SolverCalls()
        monkeypatch.setattr(flow_mod, "maxmin_rates", calls)
        straggler = FaultSpec(stragglers=(
            Straggler(gpu="gpu1", start=0.005, duration=0.005, factor=1.5),))
        config = SimulationConfig(
            parallelism="ddp", num_gpus=16, topology="leaf_spine",
            oversubscription=2.0, link_bandwidth=234e9, iterations=2,
            routing="adaptive", faults=straggler)
        result = TrioSim(rn18_trace, config, record_timeline=False).run()
        assert result.network["flows_delivered"] > 0
        assert result.network["multipath_pairs"] > 0
        assert calls.sizes == []

        topology = build_topology("leaf_spine", 16, 100e9, 1e-6,
                                  gpus_per_leaf=8, oversubscription=2.0)
        topology["leaf0"]["spine0"]["bandwidth"] *= 0.02
        for routing in ("ecmp", "adaptive"):
            engine = Engine()
            net = FlowNetwork(engine, topology.copy(), routing=routing)
            sim = TaskGraphSimulator(engine, net)
            # Every hop leaves its leaf; the second ring shifts by one.
            base = [(i % 2) * 8 + i // 2 for i in range(16)]
            for shift in range(2):
                ring_all_reduce(sim, [f"gpu{(g + shift) % 16}" for g in base],
                                8 * 2 ** 20, tag=f"ring{shift}")
            sim.run()
        assert calls.sizes and min(calls.sizes) > 1
