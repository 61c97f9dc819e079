"""Tests for the task-graph simulator."""

import pytest

from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.network.flow import FlowNetwork
from repro.network.topology import ring


def _sim(n=2, bandwidth=100.0):
    engine = Engine()
    return TaskGraphSimulator(engine, FlowNetwork(engine, ring(n, bandwidth)))


class TestCompute:
    def test_sequential_chain(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        b = sim.add_compute("b", "gpu0", 2.0, deps=[a])
        total = sim.run()
        assert total == pytest.approx(3.0)
        assert b.start_time == pytest.approx(1.0)

    def test_gpu_serializes_independent_tasks(self):
        sim = _sim()
        sim.add_compute("a", "gpu0", 1.0)
        sim.add_compute("b", "gpu0", 1.0)
        assert sim.run() == pytest.approx(2.0)

    def test_different_gpus_run_in_parallel(self):
        sim = _sim()
        sim.add_compute("a", "gpu0", 1.0)
        sim.add_compute("b", "gpu1", 1.0)
        assert sim.run() == pytest.approx(1.0)

    def test_fifo_creation_order(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        b = sim.add_compute("b", "gpu0", 1.0)
        sim.run()
        assert a.end_time <= b.start_time

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            _sim().add_compute("a", "gpu0", -1.0)

    def test_busy_time_accounting(self):
        sim = _sim()
        sim.add_compute("a", "gpu0", 1.5)
        sim.add_compute("b", "gpu1", 0.5)
        sim.run()
        assert sim.gpu_busy_time("gpu0") == pytest.approx(1.5)
        assert sim.gpu_busy_time("gpu1") == pytest.approx(0.5)
        assert sim.compute_task_time == pytest.approx(2.0)


class TestTransfers:
    def test_transfer_uses_network(self):
        sim = _sim(bandwidth=100.0)
        sim.add_transfer("x", "gpu0", "gpu1", 200.0)
        assert sim.run() == pytest.approx(2.0)

    def test_transfer_overlaps_compute(self):
        """Communication runs concurrently with computation — the basis
        of DDP overlap in the simulation."""
        sim = _sim(bandwidth=100.0)
        sim.add_compute("c", "gpu0", 2.0)
        sim.add_transfer("x", "gpu0", "gpu1", 200.0)
        assert sim.run() == pytest.approx(2.0)
        assert sim.comm_task_time == pytest.approx(2.0)

    def test_comm_accounting(self):
        sim = _sim()
        sim.add_transfer("x", "gpu0", "gpu1", 100.0)
        sim.run()
        assert sim.comm_bytes == 100.0


class TestBarriersAndDeps:
    def test_barrier_joins(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        b = sim.add_compute("b", "gpu1", 3.0)
        bar = sim.add_barrier("join", deps=[a, b])
        c = sim.add_compute("c", "gpu0", 1.0, deps=[bar])
        assert sim.run() == pytest.approx(4.0)
        assert c.start_time == pytest.approx(3.0)

    def test_fan_out(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        sim.add_compute("b", "gpu0", 1.0, deps=[a])
        sim.add_compute("c", "gpu1", 1.0, deps=[a])
        assert sim.run() == pytest.approx(2.0)

    def test_dep_on_finished_task_allowed(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        sim.run()
        b = sim.add_compute("b", "gpu0", 1.0, deps=[a])
        total = sim.run()
        assert b.done
        assert total == pytest.approx(2.0)

    def test_long_barrier_chain_no_recursion_error(self):
        sim = _sim()
        prev = sim.add_barrier("b0")
        for i in range(1, 5000):
            prev = sim.add_barrier(f"b{i}", deps=[prev])
        assert sim.run() == 0.0

    def test_cycle_detected(self):
        sim = _sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        b = sim.add_compute("b", "gpu0", 1.0, deps=[a])
        # Manually create a cycle (the public API cannot).
        sim.store.link(b.task_id, a.task_id)
        with pytest.raises(RuntimeError):
            sim.run()


class TestHooks:
    def test_task_lifecycle_hooks(self):
        events = []

        class Hook:
            def func(self, ctx):
                events.append((ctx.pos, ctx.item.name))

        sim = _sim()
        sim.accept_hook(Hook())
        sim.add_compute("a", "gpu0", 1.0)
        sim.run()
        assert ("task_start", "a") in events
        assert ("task_end", "a") in events
