"""Tests for the incremental max-min allocator and churn-free rescheduling.

Three layers of evidence that the optimization is behavior-preserving,
all against the dense oracle kept in ``benchmarks/dense_network.py``:

* a **differential property test** — on randomized topologies, flow
  sets and fault-injector capacity degradations, the scalar and numpy
  component solvers agree exactly and both reproduce the dense
  reference allocator's rates (within 1e-9 relative);
* an **end-to-end property test** — full simulations under the scoped
  allocator deliver every flow at the same time (within 1e-9) as under
  the dense network;
* a **determinism test** — ``SimulationResult`` is bit-identical across
  the two networks on the 16-point DDP sweep grid.

Plus the churn regression: a staggered ring-all-reduce load must keep
engine event cancellations under a fixed budget and at least 3x below
the legacy dense allocator's churn.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.simulator as simulator_mod
import repro.network.flow as flow_mod
from benchmarks.dense_network import (
    DenseFlowNetwork,
    all_components,
    maxmin_rates_reference,
)
from repro.collectives.ring import ring_all_reduce
from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.topology import (
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

# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------


def _install_flows(net, pairs):
    """Plant active flows directly (white-box: no engine run needed to
    exercise the solvers)."""
    flows = []
    for i, (src, dst) in enumerate(pairs):
        flow = flow_mod._Flow(i, src, dst, 1.0, lambda t: None, None)
        flow.route = net.route(src, dst)
        if not flow.route:
            continue
        net._active[i] = flow
        for edge in flow.route:
            net._edge_users.setdefault(edge, set()).add(i)
        flows.append(flow)
    return flows


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


def _solver_rates(net, component):
    """The component's rates from the dispatcher and from each solver."""
    return (net._maxmin_component(component),
            net._maxmin_component_scalar(component),
            net._maxmin_component_vector(component))


# ----------------------------------------------------------------------
# Differential: incremental solver vs dense reference allocator
# ----------------------------------------------------------------------


class TestDifferentialAllocator:
    @given(case=_random_case(), data=st.data())
    @settings(max_examples=120, deadline=None)
    def test_component_solver_matches_reference(self, case, data):
        topology, pairs = case
        net = FlowNetwork(Engine(), topology)
        flows = _install_flows(net, pairs)
        if not flows:
            return
        for (u, v), factor in data.draw(_degradations(topology)):
            net.set_link_capacity(u, v, topology[u][v]["bandwidth"] * factor)
        reference = maxmin_rates_reference(net, flows)
        solved = {}
        components = all_components(net)
        for component in components:
            dispatched, scalar, vector = _solver_rates(net, component)
            # Either side of _VECTOR_MIN_FLOWS, the two solvers are
            # interchangeable bit for bit.
            assert scalar == vector
            assert dispatched == scalar
            solved.update(scalar)
        assert set(solved) == set(reference)
        for fid, rate in solved.items():
            assert math.isclose(rate, reference[fid], rel_tol=1e-9,
                                abs_tol=1e-9), (
                f"flow {fid}: incremental {rate!r} vs reference "
                f"{reference[fid]!r}"
            )
        # The partition covers every flow exactly once.
        assert sorted(f.transfer_id for c in components for f in c) == \
            sorted(f.transfer_id for f in flows)

    @given(case=_random_case())
    @settings(max_examples=60, deadline=None)
    def test_component_rates_conserve_capacity(self, case):
        topology, pairs = case
        net = FlowNetwork(Engine(), topology)
        flows = _install_flows(net, pairs)
        if not flows:
            return
        rates = {}
        for component in all_components(net):
            rates.update(net._maxmin_component(component))
        loads = {}
        for flow in flows:
            for edge in flow.route:
                loads[edge] = loads.get(edge, 0.0) + rates[flow.transfer_id]
        for (u, v), load in loads.items():
            assert load <= topology[u][v]["bandwidth"] * (1 + 1e-6) + 1e-9
        # Progressive filling starves nobody.
        assert all(rate > 0.0 for rate in rates.values())

    def test_components_are_link_disjoint(self):
        net = FlowNetwork(Engine(), mesh2d(1, 6, bandwidth=10.0))
        flows = _install_flows(net, [("gpu0", "gpu2"), ("gpu1", "gpu2"),
                                     ("gpu3", "gpu5"), ("gpu4", "gpu5")])
        components = all_components(net)
        assert len(components) == 2
        edge_sets = [
            {edge for flow in component for edge in flow.route}
            for component in components
        ]
        assert not (edge_sets[0] & edge_sets[1])


# ----------------------------------------------------------------------
# End-to-end: delivery times match the dense network
# ----------------------------------------------------------------------


def _network(engine, topology, dense):
    return (DenseFlowNetwork if dense else FlowNetwork)(engine, topology)


def _simulate_sends(topology, sends, dense):
    engine = Engine()
    net = _network(engine, topology, dense)
    done = {}
    for key, (start, src, dst, nbytes) in enumerate(sends):
        engine.call_at(start, lambda ev, k=key, s=src, d=dst, n=nbytes:
                       net.send(s, d, n, lambda t, kk=k: done.setdefault(
                           kk, engine.now)))
    engine.run()
    return done


class TestEndToEndEquivalence:
    @given(case=_random_case(),
           data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_delivery_times_match_dense_mode(self, case, data):
        topology, pairs = case
        sends = []
        for src, dst in pairs:
            start = data.draw(st.floats(min_value=0.0, max_value=2.0,
                                        allow_nan=False))
            nbytes = data.draw(st.floats(min_value=1.0, max_value=1e6))
            sends.append((start, src, dst, nbytes))
        fast = _simulate_sends(topology, sends, dense=False)
        dense = _simulate_sends(topology, sends, dense=True)
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
        assert net.reschedules == 2  # one schedule per flow, no churn

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
# Churn regression: cancellations stay under budget
# ----------------------------------------------------------------------


def _bucketed_all_reduce_churn(dense):
    engine = Engine()
    topology = multi_node(4, 4, intra_bandwidth=100e9, inter_bandwidth=25e9)
    net = _network(engine, topology, dense)
    sim = TaskGraphSimulator(engine, net)
    for node, group in enumerate(node_groups(4, 4)):
        for bucket in range(3):
            gate = sim.add_compute(f"n{node}.g{bucket}", group[0],
                                   duration=bucket * 2e-4 + node * 3.7e-5)
            ring_all_reduce(sim, group, 8e6, deps=[gate],
                            tag=f"n{node}.b{bucket}")
    total = sim.run()
    return total, engine.total_cancelled


class TestChurnRegression:
    def test_ring_all_reduce_cancellation_budget(self):
        total_inc, cancelled_inc = _bucketed_all_reduce_churn(dense=False)
        total_leg, cancelled_leg = _bucketed_all_reduce_churn(dense=True)
        assert total_inc == total_leg
        # Node-local collectives are link-disjoint: scoped reallocation
        # must not cancel any cross-node delivery.  Budget is a fixed
        # absolute cap, not a ratio, so a regression cannot hide behind
        # the legacy number growing.
        assert cancelled_inc <= 50
        assert cancelled_leg >= 3 * max(cancelled_inc, 1)

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
            payloads = []
            for config in GRID:
                result = TrioSim(rn18_trace, config,
                                 record_timeline=False).run()
                payload = result.to_dict()
                # Host timing, not simulation state.
                payload.pop("wall_time")
                payload.pop("profile")
                payloads.append(payload)
            return payloads

        assert run_grid(FlowNetwork) == run_grid(DenseFlowNetwork)
