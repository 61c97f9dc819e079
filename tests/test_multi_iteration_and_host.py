"""Tests for multi-iteration simulation, fences, and host transfers."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.topology import build_topology, ring
from repro.trace.tracer import Tracer
from repro.workloads import get_model


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 64)


class TestFence:
    def _sim(self):
        engine = Engine()
        return TaskGraphSimulator(engine, FlowNetwork(engine, ring(2, 100.0)))

    def test_fence_orders_generations(self):
        sim = self._sim()
        a = sim.add_compute("a", "gpu0", 1.0)
        b = sim.add_compute("b", "gpu1", 3.0)
        sim.fence("f")
        c = sim.add_compute("c", "gpu0", 1.0)
        total = sim.run()
        assert c.start_time == pytest.approx(3.0)  # waited for b
        assert total == pytest.approx(4.0)

    def test_consecutive_fences(self):
        sim = self._sim()
        sim.add_compute("a", "gpu0", 1.0)
        sim.fence("f1")
        sim.add_compute("b", "gpu0", 1.0)
        sim.fence("f2")
        sim.add_compute("c", "gpu0", 1.0)
        assert sim.run() == pytest.approx(3.0)
        assert [f.end_time for f in sim.fences] == [
            pytest.approx(1.0), pytest.approx(2.0)
        ]

    def test_fence_on_empty_graph(self):
        sim = self._sim()
        sim.fence("f")
        sim.add_compute("a", "gpu0", 2.0)
        assert sim.run() == pytest.approx(2.0)


class TestMultiIteration:
    def test_iterations_scale_linearly(self, trace):
        def run(iters):
            config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                      link_bandwidth=100e9, iterations=iters)
            return TrioSim(trace, config, record_timeline=False).run()

        one = run(1)
        four = run(4)
        assert four.total_time == pytest.approx(4 * one.total_time, rel=1e-6)
        assert len(four.iteration_times) == 4
        assert sum(four.iteration_times) == pytest.approx(four.total_time)

    def test_iteration_times_equal(self, trace):
        config = SimulationConfig(parallelism="pp", num_gpus=2, chunks=2,
                                  link_bandwidth=100e9, iterations=3)
        result = TrioSim(trace, config, record_timeline=False).run()
        assert max(result.iteration_times) == pytest.approx(
            min(result.iteration_times), rel=1e-6
        )

    def test_single_iteration_has_no_breakdown(self, trace):
        config = SimulationConfig(parallelism="single")
        result = TrioSim(trace, config, record_timeline=False).run()
        assert result.iteration_times == []

    def test_invalid_iterations(self):
        with pytest.raises(ValueError):
            SimulationConfig(iterations=0)


class TestHostTransfers:
    def _run(self, trace, include, **kw):
        config = SimulationConfig(
            parallelism=kw.pop("parallelism", "ddp"),
            num_gpus=kw.pop("num_gpus", 2),
            link_bandwidth=200e9,
            include_host_transfers=include,
            **kw,
        )
        return TrioSim(trace, config, record_timeline=True).run()

    def test_adds_h2d_time(self, trace):
        base = self._run(trace, False)
        host = self._run(trace, True)
        input_bytes = 64 * 3 * 224 * 224 * 4
        expected = input_bytes / 12e9
        assert host.total_time - base.total_time == pytest.approx(
            expected, rel=0.05
        )

    def test_h2d_tasks_in_timeline(self, trace):
        host = self._run(trace, True)
        h2d = [r for r in host.timeline if r.name.startswith("h2d:")]
        assert len(h2d) == 2  # one per DDP rank
        assert all(r.resource == "host->" + r.resource.split("->")[1]
                   for r in h2d)

    def test_each_iteration_fetches(self, trace):
        host = self._run(trace, True, iterations=3)
        h2d = [r for r in host.timeline if r.name.startswith("h2d:")]
        assert len(h2d) == 6

    def test_pipeline_fetches_per_micro_batch(self, trace):
        host = self._run(trace, True, parallelism="pp", chunks=4)
        h2d = [r for r in host.timeline if r.name.startswith("h2d:")]
        assert len(h2d) == 4
        assert all("gpu0" in r.resource for r in h2d)

    @pytest.mark.parametrize("prebuilt", [False, True],
                             ids=["named", "graph"])
    def test_named_and_prebuilt_topologies_agree(self, prebuilt):
        # Both network paths add host links through one helper; the
        # caller's graph must stay untouched.
        trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"), 32)
        graph = build_topology("ring", 4, 50e9, 2e-6)
        config = SimulationConfig(
            parallelism="ddp", num_gpus=4,
            topology=graph if prebuilt else "ring",
            link_bandwidth=50e9, link_latency=2e-6,
            include_host_transfers=True, host_bandwidth=10e9, iterations=2,
        )
        result = TrioSim(trace, config, record_timeline=False).run()
        assert result.total_time == 0.019565903602891864
        assert result.events == 1699
        assert "host" not in graph

    def test_off_by_default(self, trace):
        base = self._run(trace, False)
        assert not any(r.name.startswith("h2d:") for r in base.timeline)


class _Recorder:
    """Hook keeping every context it sees."""

    def __init__(self):
        self.seen = []

    def func(self, ctx):
        self.seen.append(ctx)


class TestMonitorHook:
    def test_monitor_attaches(self, trace):
        hook = _Recorder()
        config = SimulationConfig(parallelism="single")
        TrioSim(trace, config, hooks=[hook]).run()
        ends = [ctx for ctx in hook.seen if ctx.pos == "task_end"]
        assert len(ends) == len(trace.operators)
