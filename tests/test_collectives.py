"""Tests for ring collective task generation and timing."""

import pytest

from repro.collectives.ring import (
    ring_all_gather,
    ring_all_reduce,
    ring_broadcast,
    ring_gather,
    ring_reduce,
    ring_reduce_scatter,
    ring_scatter,
)
from repro.core.plan import PlanBuilder
from repro.core.taskgraph import BARRIER, TRANSFER, TaskGraphSimulator
from repro.engine.engine import Engine
from repro.network.flow import FlowNetwork
from repro.network.topology import gpu_names, ring


def _sim(n=4, bandwidth=100.0, latency=0.0):
    engine = Engine()
    net = FlowNetwork(engine, ring(n, bandwidth=bandwidth, latency=latency))
    return TaskGraphSimulator(engine, net)


class TestAllReduce:
    def test_transfer_count(self):
        builder = PlanBuilder()
        ring_all_reduce(builder, gpu_names(4), 400.0)
        # 2(n-1) rounds x n transfers.
        assert builder.columns["kind"].count(TRANSFER) == 2 * 3 * 4

    def test_classic_timing(self):
        """Ring AllReduce of S bytes on n GPUs with per-link bandwidth B
        takes 2(n-1)/n * S / B when latency is zero."""
        n, nbytes, bw = 4, 400.0, 100.0
        sim = _sim(n, bandwidth=bw)
        ring_all_reduce(sim, gpu_names(n), nbytes)
        total = sim.run()
        assert total == pytest.approx(2 * (n - 1) / n * nbytes / bw)

    def test_single_gpu_is_noop(self):
        sim = _sim(2)
        tasks = ring_all_reduce(sim, ["gpu0"], 100.0)
        assert sim.run() == 0.0
        assert sim.store.kind[tasks[0]] == BARRIER

    def test_zero_bytes_is_noop(self):
        sim = _sim(2)
        ring_all_reduce(sim, gpu_names(2), 0.0)
        assert sim.run() == 0.0

    def test_rounds_are_chained(self):
        """Later rounds cannot start before earlier rounds complete."""
        sim = _sim(4, bandwidth=100.0)
        ring_all_reduce(sim, gpu_names(4), 400.0)
        sim.run()
        store = sim.store
        by_step = {}
        for t in range(len(store)):
            if store.kind[t] == TRANSFER:
                step = int(store.name[t].split(".step")[1].split(".")[0])
                by_step.setdefault(step, []).append(t)
        for step in range(1, 6):
            earliest = min(store.start[t] for t in by_step[step])
            latest_prev = max(store.end[t] for t in by_step[step - 1])
            assert earliest >= latest_prev


class TestPhases:
    def test_reduce_scatter_plus_all_gather_equals_all_reduce(self):
        n, nbytes = 4, 400.0
        sim1 = _sim(n)
        ring_all_reduce(sim1, gpu_names(n), nbytes)
        t_ar = sim1.run()
        sim2 = _sim(n)
        rs = ring_reduce_scatter(sim2, gpu_names(n), nbytes)
        ring_all_gather(sim2, gpu_names(n), nbytes, deps=rs)
        t_phases = sim2.run()
        assert t_phases == pytest.approx(t_ar)

    def test_all_gather_timing(self):
        n, nbytes, bw = 4, 400.0, 100.0
        sim = _sim(n, bandwidth=bw)
        ring_all_gather(sim, gpu_names(n), nbytes)
        assert sim.run() == pytest.approx((n - 1) / n * nbytes / bw)


class TestRooted:
    def test_broadcast_visits_all(self):
        sim = _sim(4, bandwidth=100.0)
        ring_broadcast(sim, gpu_names(4), 100.0, root=0)
        total = sim.run()
        # 3 sequential full-size hops.
        assert total == pytest.approx(3 * 1.0)

    def test_scatter_parallel_chunks(self):
        sim = _sim(4, bandwidth=100.0)
        ring_scatter(sim, gpu_names(4), 400.0, root=0)
        total = sim.run()
        # Chunks to gpu1 (1 hop) and gpu2/gpu3 (shared first hop? no:
        # ring shortest paths diverge left/right); just check bounds.
        assert 1.0 <= total <= 4.0

    def test_gather_mirror_of_scatter(self):
        sim1 = _sim(4)
        ring_scatter(sim1, gpu_names(4), 400.0)
        t_scatter = sim1.run()
        sim2 = _sim(4)
        ring_gather(sim2, gpu_names(4), 400.0)
        t_gather = sim2.run()
        assert t_gather == pytest.approx(t_scatter)

    def test_reduce_converges_to_root(self):
        builder = PlanBuilder()
        tasks = ring_reduce(builder, gpu_names(3), 300.0, root=0)
        assert builder.columns["dst"][tasks[-1]] == "gpu0"


class TestDependencies:
    def test_collective_waits_for_deps(self):
        sim = _sim(2, bandwidth=100.0)
        gate = sim.add_compute("gate", "gpu0", 5.0)
        ring_all_reduce(sim, gpu_names(2), 200.0, deps=[gate])
        total = sim.run()
        assert total == pytest.approx(5.0 + 2.0)  # 2(n-1)/n * S/B = 2.0
