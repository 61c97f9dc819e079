"""Property-based tests on cross-cutting simulator invariants.

These exercise the composed system with randomized inputs: whatever the
workload, topology, or schedule, physical invariants must hold — makespan
bounds, work conservation, port budgets, determinism.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.collectives.ring import ring_all_reduce
from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.photonic import PhotonicNetwork
from repro.network.topology import gpu_names, ring, switch
from repro.trace.tracer import Tracer
from repro.workloads import get_model

# ----------------------------------------------------------------------
# Task-graph scheduling invariants
# ----------------------------------------------------------------------

_task_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),       # gpu index
        st.floats(min_value=0.0, max_value=10.0),    # duration
        st.integers(min_value=0, max_value=4),       # dep reach-back
    ),
    min_size=1, max_size=30,
)


@given(spec=_task_lists)
@settings(max_examples=60, deadline=None)
def test_property_makespan_bounds(spec):
    """Makespan >= every GPU's busy time (resource bound) and
    makespan >= the longest dependency chain (critical path), while
    makespan <= the fully-serial sum."""
    engine = Engine()
    sim = TaskGraphSimulator(engine, FlowNetwork(engine, ring(4, 100.0)))
    tasks = []
    finish_lb = []
    for i, (gpu, duration, reach) in enumerate(spec):
        deps = [tasks[i - reach]] if reach and i - reach >= 0 else []
        tasks.append(sim.add_compute(f"t{i}", f"gpu{gpu}", duration, deps=deps))
        lb = (finish_lb[i - reach] if deps else 0.0) + duration
        finish_lb.append(lb)
    makespan = sim.run()
    busy = sim.totals().busy
    for gpu in range(4):
        assert makespan >= busy.get(f"gpu{gpu}", 0.0) - 1e-9
    assert makespan >= max(finish_lb) - 1e-9
    assert makespan <= sum(d for _g, d, _r in spec) + 1e-9


@given(spec=_task_lists)
@settings(max_examples=30, deadline=None)
def test_property_scheduling_deterministic(spec):
    def run():
        engine = Engine()
        sim = TaskGraphSimulator(engine, FlowNetwork(engine, ring(4, 100.0)))
        tasks = []
        for i, (gpu, duration, reach) in enumerate(spec):
            deps = [tasks[i - reach]] if reach and i - reach >= 0 else []
            tasks.append(sim.add_compute(f"t{i}", f"gpu{gpu}", duration,
                                         deps=deps))
        sim.run()
        return [(sim.store.start[t], sim.store.end[t]) for t in tasks]

    assert run() == run()


# ----------------------------------------------------------------------
# Flow-network conservation
# ----------------------------------------------------------------------

_flow_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5),      # src
        st.integers(min_value=0, max_value=5),      # dst
        st.floats(min_value=1.0, max_value=1e4),    # bytes
        st.floats(min_value=0.0, max_value=5.0),    # start offset
    ),
    min_size=1, max_size=12,
)


@given(flows=_flow_specs)
@settings(max_examples=60, deadline=None)
def test_property_all_flows_deliver_exactly_once(flows):
    engine = Engine()
    net = FlowNetwork(engine, switch(6, bandwidth=1000.0, latency=1e-3))
    delivered = []
    for i, (src, dst, nbytes, offset) in enumerate(flows):
        engine.call_at(
            offset,
            lambda _ev, s=src, d=dst, b=nbytes, k=i: net.send(
                f"gpu{s}", f"gpu{d}", b, lambda t, key=k: delivered.append(key)
            ),
        )
    engine.run()
    assert sorted(delivered) == list(range(len(flows)))
    assert net.active_flows == 0
    assert net.total_bytes_delivered == pytest.approx(
        sum(b for _s, _d, b, _o in flows)
    )


@given(flows=_flow_specs)
@settings(max_examples=40, deadline=None)
def test_property_no_flow_beats_wire_speed(flows):
    """No transfer can complete faster than its bytes at full bandwidth
    plus its path latency."""
    bandwidth, hop_latency = 1000.0, 1e-3
    engine = Engine()
    net = FlowNetwork(engine, switch(6, bandwidth=bandwidth,
                                     latency=hop_latency))
    records = []
    for src, dst, nbytes, offset in flows:
        engine.call_at(
            offset,
            lambda _ev, s=src, d=dst, b=nbytes: net.send(
                f"gpu{s}", f"gpu{d}", b,
                lambda t: records.append(t),
            ),
        )
    engine.run()
    for transfer in records:
        if transfer.src == transfer.dst or transfer.nbytes == 0:
            continue
        floor = transfer.nbytes / bandwidth + hop_latency  # 2 hops x lat/2
        elapsed = transfer.deliver_time - transfer.start_time
        assert elapsed >= floor - 1e-9


# ----------------------------------------------------------------------
# Photonic port budget
# ----------------------------------------------------------------------

@given(
    pairs=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5),
                  st.floats(min_value=1.0, max_value=1e3)),
        min_size=1, max_size=15,
    ),
    ports=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_property_photonic_ports_never_exceeded(pairs, ports):
    engine = Engine()
    net = PhotonicNetwork(engine, gpu_names(6), bandwidth=100.0,
                          setup_latency=0.5, ports_per_node=ports)
    violations = []

    def check(_ev):
        for node in gpu_names(6):
            if net.ports_in_use(node) > ports:
                violations.append(node)
        if engine.pending_events:
            engine.call_after(0.25, check)

    delivered = []
    for src, dst, nbytes in pairs:
        net.send(f"gpu{src}", f"gpu{dst}", nbytes,
                 lambda t: delivered.append(t))
    engine.call_after(0.0, check)
    engine.run()
    assert not violations
    assert len(delivered) == len(pairs)


# ----------------------------------------------------------------------
# Collectives on random configurations
# ----------------------------------------------------------------------

@given(n=st.integers(min_value=2, max_value=12),
       nbytes=st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=50, deadline=None)
def test_property_ring_allreduce_matches_formula(n, nbytes):
    engine = Engine()
    sim = TaskGraphSimulator(
        engine, FlowNetwork(engine, ring(n, bandwidth=100.0, latency=0.0))
    )
    ring_all_reduce(sim, gpu_names(n), nbytes)
    assert sim.run() == pytest.approx(2 * (n - 1) / n * nbytes / 100.0, rel=1e-6)


# ----------------------------------------------------------------------
# End-to-end determinism
# ----------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("parallelism,num_gpus",
                         [("ddp", 3), ("tp", 2), ("pp", 2)])
def test_end_to_end_runs_are_bit_identical(parallelism, num_gpus):
    trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"), 32)
    config = SimulationConfig(parallelism=parallelism, num_gpus=num_gpus,
                              chunks=2, link_bandwidth=77e9)

    def run():
        return TrioSim(trace, config, record_timeline=False).run().total_time

    assert run() == run()
