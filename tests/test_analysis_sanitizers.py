"""Runtime sanitizers, the static task-graph checks of ``verify``, and
their integration into TrioSim and the sweep service."""

import types

import networkx as nx
import pytest

from repro import SimulationConfig, Tracer, TrioSim, get_gpu, get_model
from repro.analysis import (
    AllocatorWarningSanitizer,
    AnalysisError,
    HeapLeakSanitizer,
    LinkCapacitySanitizer,
    Report,
    RuntimeSuite,
    TimeMonotonicSanitizer,
    verify_taskgraph,
)
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.engine.hooks import HookCtx
from repro.network.flow import (
    HOOK_FLOW_REALLOC,
    HOOK_FLOW_WARNING,
    FlowNetwork,
    RoutingError,
)
from repro.network.topology import build_topology
from repro.service.runner import SweepRunner
from tests.plan_edits import rewired


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), batch_size=32)


def make_sim(num_gpus=2):
    engine = Engine()
    topology = build_topology("ring", num_gpus, 100e9, 1e-6)
    network = FlowNetwork(engine, topology)
    return TaskGraphSimulator(engine, network), topology


# ----------------------------------------------------------------------
# Sanitizer units
# ----------------------------------------------------------------------
class TestTimeMonotonic:
    def test_silent_on_monotonic_times(self):
        report = Report()
        sanitizer = TimeMonotonicSanitizer(report)
        for seq, t in enumerate((0.0, 0.5, 0.5, 1.25)):
            sanitizer.observe(t, seq, None)
        assert report.ok

    def test_fires_on_backwards_time(self):
        report = Report()
        sanitizer = TimeMonotonicSanitizer(report)
        sanitizer.observe(2.0, 0, None)
        sanitizer.observe(1.0, 1, None)
        assert report.rule_ids() == ["SZ001"]
        assert report.has_errors

    def test_findings_capped(self):
        from repro.analysis.sanitizers import MAX_FINDINGS_PER_SANITIZER

        report = Report()
        sanitizer = TimeMonotonicSanitizer(report)
        sanitizer.observe(100.0, 0, None)
        for t in range(50):
            sanitizer.observe(float(t), t + 1, None)
        assert len(report.findings) == MAX_FINDINGS_PER_SANITIZER


class TestLinkCapacity:
    @staticmethod
    def realloc_ctx(flows, topology, time=1.0):
        return HookCtx(HOOK_FLOW_REALLOC, time, flows,
                       detail={"topology": topology})

    @staticmethod
    def flow(rate, route):
        return types.SimpleNamespace(rate=rate, route=route)

    def test_silent_within_capacity(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=100.0, latency=0.0)
        report = Report()
        sanitizer = LinkCapacitySanitizer(report)
        flows = [self.flow(50.0, [("gpu0", "gpu1")]),
                 self.flow(50.0, [("gpu0", "gpu1")])]
        sanitizer.func(self.realloc_ctx(flows, g))
        assert report.ok

    def test_fires_on_oversubscribed_link(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=100.0, latency=0.0)
        report = Report()
        sanitizer = LinkCapacitySanitizer(report)
        flows = [self.flow(80.0, [("gpu0", "gpu1")]),
                 self.flow(80.0, [("gpu0", "gpu1")])]
        sanitizer.func(self.realloc_ctx(flows, g))
        assert report.rule_ids() == ["SZ002"]
        assert "gpu0->gpu1" in report.findings[0].message

    def test_ignores_other_positions(self):
        report = Report()
        sanitizer = LinkCapacitySanitizer(report)
        sanitizer.func(HookCtx("flow_start", 0.0, None))
        assert report.ok

    def test_real_network_respects_capacity(self):
        # Saturate one link with competing flows; max-min allocation must
        # never oversubscribe it.
        engine = Engine()
        g = build_topology("ring", 4, 1e9, 1e-6)
        network = FlowNetwork(engine, g)
        report = Report()
        network.accept_hook(LinkCapacitySanitizer(report))
        done = []
        for i in range(4):
            network.send("gpu0", "gpu1", 1e6, lambda f: done.append(f))
        engine.run()
        assert len(done) == 4
        assert report.ok


class TestAllocatorWarning:
    def test_warning_hook_becomes_sz004_finding(self):
        report = Report()
        sanitizer = AllocatorWarningSanitizer(report)
        sanitizer.func(HookCtx(HOOK_FLOW_WARNING, 2.5,
                               "progressive filling stalled",
                               detail={"flows": 3}))
        assert report.rule_ids() == ["SZ004"]
        finding = report.findings[0]
        assert "progressive filling stalled" in finding.message
        assert "t=2.5" in finding.message
        assert finding.severity == "warning"
        assert not report.has_errors  # warnings never fail a run

    def test_ignores_other_positions(self):
        report = Report()
        sanitizer = AllocatorWarningSanitizer(report)
        sanitizer.func(HookCtx(HOOK_FLOW_REALLOC, 0.0, []))
        assert report.ok

    def test_findings_capped(self):
        from repro.analysis.sanitizers import MAX_FINDINGS_PER_SANITIZER

        report = Report()
        sanitizer = AllocatorWarningSanitizer(report)
        for i in range(MAX_FINDINGS_PER_SANITIZER + 20):
            sanitizer.func(HookCtx(HOOK_FLOW_WARNING, float(i), "stall"))
        assert len(report.findings) == MAX_FINDINGS_PER_SANITIZER

    def test_network_warning_reaches_attached_suite(self):
        engine = Engine()
        network = FlowNetwork(engine, build_topology("ring", 2, 1e9, 1e-6))
        suite = RuntimeSuite().attach(engine=engine, network=network)
        network._warn_allocator("synthetic stall", flows=1)
        report = suite.finalize()
        assert "SZ004" in report.rule_ids()
        assert network.allocator_warnings == 1

    def test_sz004_can_be_disabled(self):
        from repro.analysis import DEFAULT_REGISTRY

        engine = Engine()
        network = FlowNetwork(engine, build_topology("ring", 2, 1e9, 1e-6))
        scoped = DEFAULT_REGISTRY.scoped(disable=["SZ004"])
        suite = RuntimeSuite(registry=scoped).attach(engine=engine,
                                                     network=network)
        network._warn_allocator("synthetic stall")
        report = suite.finalize()
        assert "SZ004" not in report.rule_ids()


class TestHeapLeak:
    def test_clean_engine(self):
        engine = Engine()
        engine.call_after(1.0, lambda ev: None)
        engine.run()
        report = Report()
        HeapLeakSanitizer(report).check(engine)
        assert report.ok

    def test_detects_stranded_events(self):
        engine = Engine()
        engine.call_after(1.0, lambda ev: None)  # never run
        report = Report()
        HeapLeakSanitizer(report).check(engine)
        assert report.rule_ids() == ["SZ003"]


class TestSanitizerSuite:
    """The SZ side of the verifier's :class:`RuntimeSuite`."""

    def test_attach_finalize_detaches_hooks(self):
        sim, _ = make_sim()
        engine, network = sim.engine, sim.network
        suite = RuntimeSuite().attach(engine=engine, network=network,
                                      sim=sim)
        # Tie-order (RC001) and time-monotonic (SZ001) dispatch
        # observers; link-capacity (SZ002), allocator-convergence (SZ004)
        # and path-capacity (SZ006); happens-before (RC002) on the task
        # graph.
        assert len(engine._observers) == 2
        assert len(network._hooks) == 3
        assert len(sim._hooks) == 1
        engine.run()
        report = suite.finalize()
        assert report.ok
        assert engine._observers == [] and network._hooks == []
        assert sim._hooks == []
        assert isinstance(suite.order_digest, int)

    def test_respects_disabled_rules(self):
        from repro.analysis import DEFAULT_REGISTRY

        engine = Engine()
        scoped = DEFAULT_REGISTRY.scoped(disable=["SZ001"])
        suite = RuntimeSuite(registry=scoped).attach(engine=engine)
        # Only the tie-order detector (RC001) observes the engine.
        assert engine._observers == [suite._tie.observe]


# ----------------------------------------------------------------------
# Static task-graph checks (the DV rules verify runs before any event)
# ----------------------------------------------------------------------
class TestTaskGraphLint:
    def test_clean_graph(self):
        sim, topology = make_sim()
        a = sim.add_compute("a", "gpu0", 1e-3)
        b = sim.add_transfer("b", "gpu0", "gpu1", 1e6, deps=[a])
        sim.add_compute("c", "gpu1", 1e-3, deps=[b])
        assert verify_taskgraph(sim, topology=topology).ok

    def test_cycle_is_dv002(self):
        sim, topology = make_sim()
        a = sim.add_compute("a", "gpu0", 1e-3)
        b = sim.add_compute("b", "gpu1", 1e-3, deps=[a])
        # Manually close the loop a -> b -> a.
        sim.store.link(b.task_id, a.task_id)
        report = verify_taskgraph(sim, topology=topology)
        assert "DV002" in report.rule_ids()
        assert report.has_errors

    def test_unknown_endpoint_is_dv001(self):
        sim, topology = make_sim()
        sim.add_transfer("t", "gpu0", "gpu7", 1e6)
        report = verify_taskgraph(sim, topology=topology)
        assert report.rule_ids() == ["DV001"]
        assert "gpu7" in report.findings[0].message
        assert report.findings[0].detail["endpoint"] == "gpu7"

    def test_endpoint_check_needs_topology(self):
        sim, _ = make_sim()
        sim.add_transfer("t", "gpu0", "gpu7", 1e6)
        assert verify_taskgraph(sim).ok  # endpoint check skipped

    def test_dep_count_mismatch_is_dv003(self):
        sim, topology = make_sim()
        a = sim.add_compute("a", "gpu0", 1e-3)
        sim.add_compute("b", "gpu0", 1e-3, deps=[a])
        sim.store.indegree[a.task_id] = 7  # corrupt the counter
        report = verify_taskgraph(sim, topology=topology)
        assert report.rule_ids() == ["DV003"]
        assert "declares 7 pending dependencies" in report.findings[0].message

    def test_extrapolated_graphs_are_clean(self, trace):
        for parallelism, kwargs in (
            ("ddp", {"num_gpus": 4}),
            ("tp", {"num_gpus": 4}),
            ("pp", {"num_gpus": 4, "chunks": 4}),
        ):
            config = SimulationConfig(parallelism=parallelism,
                                      topology="ring", **kwargs)
            sim = TrioSim(trace, config, verify=True)
            result = sim.run()  # verify checks the graph pre-run
            assert result.total_time > 0
            assert sim.verify_report.ok


# ----------------------------------------------------------------------
# TrioSim integration
# ----------------------------------------------------------------------
class TestTrioSimSanitize:
    def test_sanitize_off_by_default(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        sim = TrioSim(trace, config)
        sim.run()
        assert sim.verify_report is None
        assert sim.verify_digest is None

    def test_sanitize_matches_unsanitized_result(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="ring")
        plain = TrioSim(trace, config).run()
        sanitized_sim = TrioSim(trace, config, verify=True)
        sanitized = sanitized_sim.run()
        assert sanitized.total_time == plain.total_time
        assert sanitized_sim.verify_report.ok

    def test_bad_endpoint_rejected_before_dispatch(self, trace, monkeypatch):
        # A transfer to a node the topology lacks must fail the static
        # tier (DV001), not die with a RoutingError mid-simulation.
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        sim = TrioSim(trace, config, verify=True)
        original = TrioSim.build_plan

        def bad_build_plan(self):
            plan = original(self)
            # Rename rank gpu1 in every transfer: the collectives keep
            # their shape, but gpu9 is not a node of the 2-GPU ring.
            for column in (plan.columns["src"], plan.columns["dst"]):
                column[:] = ["gpu9" if node == "gpu1" else node
                             for node in column]
            return plan

        dispatched = []
        real_run = TaskGraphSimulator.run
        monkeypatch.setattr(TrioSim, "build_plan", bad_build_plan)
        monkeypatch.setattr(
            TaskGraphSimulator, "run",
            lambda self: dispatched.append(self) or real_run(self))
        with pytest.raises(AnalysisError) as excinfo:
            sim.run()
        assert "DV001" in str(excinfo.value)
        assert "gpu9" in str(excinfo.value)
        assert dispatched == []

    def test_broken_extrapolator_rejected_pre_run(self, trace, monkeypatch):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        sim = TrioSim(trace, config, verify=True)
        original = TrioSim.build_plan

        def bad_build_plan(self):
            plan = original(self)
            # Introduce a dependency cycle after extrapolation: the
            # first consumer of task 0 now also feeds task 0.
            consumer = int(plan.succ_idx[plan.succ_ptr[0]])
            return rewired(plan, 0, [consumer])

        monkeypatch.setattr(TrioSim, "build_plan", bad_build_plan)
        with pytest.raises(AnalysisError) as excinfo:
            sim.run()
        assert "DV002" in str(excinfo.value)
        assert excinfo.value.report.has_errors


# ----------------------------------------------------------------------
# Routing errors (satellite: descriptive FlowNetwork errors)
# ----------------------------------------------------------------------
class TestRoutingErrors:
    def test_unknown_endpoint_named(self):
        engine = Engine()
        network = FlowNetwork(engine, build_topology("ring", 2, 1e9, 1e-6))
        with pytest.raises(RoutingError, match="gpu9"):
            network.route("gpu0", "gpu9")

    def test_disconnected_pair_named(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=1e9, latency=1e-6)
        g.add_node("gpu2")
        network = FlowNetwork(Engine(), g)
        with pytest.raises(RoutingError, match="disconnected"):
            network.path_latency("gpu0", "gpu2")

    def test_routing_error_is_value_error(self):
        assert issubclass(RoutingError, ValueError)


# ----------------------------------------------------------------------
# Sweep-service integration
# ----------------------------------------------------------------------
class TestSweepIntegration:
    def test_lint_rejects_bad_point_before_dispatch(self, trace):
        good = SimulationConfig(parallelism="ddp", num_gpus=2,
                                topology="ring")
        bad = SimulationConfig(parallelism="pp", num_gpus=2,
                               topology="ring", chunks=64)  # > batch 32
        runner = SweepRunner(max_workers=1)
        outcomes = runner.run(trace, [good, bad])
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].error.kind == "VerifyError"
        assert "CF006" in outcomes[1].error.message
        assert runner.last_metrics.errors == 1

    def test_sanitized_sweep_is_clean_and_identical(self, trace):
        configs = [
            SimulationConfig(parallelism="ddp", num_gpus=n, topology="ring")
            for n in (2, 4)
        ]
        plain = SweepRunner(max_workers=1).run(trace, configs)
        sanitized = SweepRunner(max_workers=1, verify=True).run(
            trace, configs
        )
        for p, s in zip(plain, sanitized):
            assert s.ok
            assert s.result.total_time == p.result.total_time
            assert s.sanitizer_findings == []

    def test_outcome_dict_carries_sanitizer_findings(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        runner = SweepRunner(max_workers=1, verify=True)
        outcome = runner.run(trace, [config])[0]
        assert outcome.to_dict()["sanitizer_findings"] == []

    def test_parallel_workers_thread_sanitize(self, trace):
        configs = [
            SimulationConfig(parallelism="ddp", num_gpus=n, topology="ring")
            for n in (2, 4)
        ]
        runner = SweepRunner(max_workers=2, verify=True)
        outcomes = runner.run(trace, configs)
        assert all(o.ok for o in outcomes)
        assert all(o.sanitizer_findings == [] for o in outcomes)
