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
    verify_plan,
)
from repro.analysis.sanitizers import RestartConsistencySanitizer
from repro.core.plan import PlanBuilder
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.network.flow import FlowNetwork, RoutingError
from repro.network.routing import RoutingStrategy
from repro.network.topology import build_topology
from repro.service.runner import SweepRunner
from tests.plan_edits import rewired


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), batch_size=32)


#: A 2-GPU ring: the topology DV001 checks transfer endpoints against.
RING2 = build_topology("ring", 2, 100e9, 1e-6)


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
    def flow(rate, route):
        return types.SimpleNamespace(rate=rate, route=route)

    def test_silent_within_capacity(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=100.0, latency=0.0)
        report = Report()
        sanitizer = LinkCapacitySanitizer(report, g)
        flows = [self.flow(50.0, [("gpu0", "gpu1")]),
                 self.flow(50.0, [("gpu0", "gpu1")])]
        sanitizer.observe(1.0, flows)
        assert report.ok

    def test_fires_on_oversubscribed_link(self):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=100.0, latency=0.0)
        report = Report()
        sanitizer = LinkCapacitySanitizer(report, g)
        flows = [self.flow(80.0, [("gpu0", "gpu1")]),
                 self.flow(80.0, [("gpu0", "gpu1")])]
        sanitizer.observe(1.0, flows)
        assert report.rule_ids() == ["SZ002"]
        assert "gpu0->gpu1" in report.findings[0].message

    def test_ignores_other_positions(self):
        # Registered as a reallocation observer, the sanitizer never sees
        # the network's allocator warnings.
        engine = Engine()
        g = build_topology("ring", 2, 1e9, 1e-6)
        network = FlowNetwork(engine, g)
        report = Report()
        network.realloc_observers.append(
            LinkCapacitySanitizer(report, g).observe)
        network._warn_allocator("synthetic stall", flows=1)
        assert report.ok and network.allocator_warnings == 1

    def test_fires_through_a_real_network(self):
        # Seeded defect: the link is re-rated on the topology behind the
        # network's back (not through set_link_capacity), so the
        # allocator keeps sharing the stale capacity.
        engine = Engine()
        g = build_topology("ring", 2, 1e9, 1e-6)
        network = FlowNetwork(engine, g)
        suite = RuntimeSuite().attach(engine=engine, network=network)
        network.send("gpu0", "gpu1", 1e6, lambda t: None)
        g["gpu0"]["gpu1"]["bandwidth"] = 1e8
        network.send("gpu0", "gpu1", 1e6, lambda t: None)
        engine.run()
        report = suite.finalize()
        assert "SZ002" in report.rule_ids()
        assert "gpu0->gpu1" in report.findings[0].message

    def test_real_network_respects_capacity(self):
        # Saturate one link with competing flows; max-min allocation must
        # never oversubscribe it.
        engine = Engine()
        g = build_topology("ring", 4, 1e9, 1e-6)
        network = FlowNetwork(engine, g)
        report = Report()
        network.realloc_observers.append(
            LinkCapacitySanitizer(report, g).observe)
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
        sanitizer.observe(2.5, "progressive filling stalled", {"flows": 3})
        assert report.rule_ids() == ["SZ004"]
        finding = report.findings[0]
        assert "progressive filling stalled" in finding.message
        assert "t=2.5" in finding.message
        assert finding.severity == "warning"
        assert not report.has_errors  # warnings never fail a run

    def test_ignores_other_positions(self):
        # Attached as a warning observer, SZ004 stays silent through a
        # run full of reallocations that raise no warning.
        engine = Engine()
        network = FlowNetwork(engine, build_topology("ring", 4, 1e9, 1e-6))
        suite = RuntimeSuite().attach(engine=engine, network=network)
        for _ in range(4):
            network.send("gpu0", "gpu1", 1e6, lambda t: None)
        engine.run()
        assert network.reallocations > 0
        assert suite.finalize().ok

    def test_findings_capped(self):
        from repro.analysis.sanitizers import MAX_FINDINGS_PER_SANITIZER

        report = Report()
        sanitizer = AllocatorWarningSanitizer(report)
        for i in range(MAX_FINDINGS_PER_SANITIZER + 20):
            sanitizer.observe(float(i), "stall", {})
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


class _FlowLog:
    """Reallocation observer recording every reported flow."""

    def __init__(self):
        self.flows = []

    def __call__(self, time, flows):
        self.flows.extend((view.src, view.dst, view.rate) for view in flows)


class _FabricatingRouting(RoutingStrategy):
    """A broken strategy: it appends a link the topology lacks to the
    candidate path it picks."""

    name = "fabricating"

    def choose(self, src, dst, candidates, network):
        candidates[0].append(("spine0", "nowhere"))
        return 0


class TestIdleRouteFlows:
    """A flow sent onto an idle route is delivered without activation or
    solve; the sanitizers still see it."""

    def test_reported_once_at_its_rate(self):
        engine = Engine()
        network = FlowNetwork(engine, build_topology("ring", 4, 1e9, 1e-6))
        log = _FlowLog()
        network.realloc_observers.append(log)
        network.send("gpu0", "gpu1", 1e6, lambda t: None)
        engine.run()
        assert engine.dispatched_events == 1
        assert log.flows == [("gpu0", "gpu1", 1e9)]

    def test_fabricated_route_on_idle_fabric_is_sz006(self):
        engine = Engine()
        topology = build_topology("leaf_spine", 16, 100e9, 1e-6,
                                  gpus_per_leaf=8)
        network = FlowNetwork(engine, topology,
                              routing=_FabricatingRouting())
        suite = RuntimeSuite().attach(engine=engine, network=network)
        network.send("gpu0", "gpu8", 1e6, lambda t: None)
        engine.run()
        report = suite.finalize()
        assert engine.dispatched_events == 1
        assert report.rule_ids() == ["SZ006"]
        assert "spine0->nowhere" in report.findings[0].message

    def test_stranded_idle_route_flow_is_sz005(self):
        engine = Engine()
        network = FlowNetwork(engine, build_topology("ring", 4, 1e9, 1e-6))
        network.send("gpu0", "gpu1", 1e6, lambda t: None)
        engine.run(until=5e-4)  # mid-transfer: delivery is at ~1 ms
        assert network.active_flows == 1
        report = Report()
        injector = types.SimpleNamespace(consistency_errors=lambda: [])
        RestartConsistencySanitizer(report).check(injector, network=network)
        assert report.rule_ids() == ["SZ005"]


class TestSanitizerSuite:
    """The SZ side of the verifier's :class:`RuntimeSuite`."""

    def test_attach_finalize_detaches_hooks(self):
        sim, _ = make_sim()
        engine, network = sim.engine, sim.network
        suite = RuntimeSuite().attach(engine=engine, network=network,
                                      sim=sim)
        # Tie-order (RC001) and time-monotonic (SZ001) dispatch
        # observers; link-capacity (SZ002), allocator-convergence (SZ004)
        # and path-capacity (SZ006).  Happens-before (RC002) reads the
        # task table at finalize and attaches nothing.
        assert len(engine._observers) == 2
        assert len(network.realloc_observers) == 2
        assert len(network.warning_observers) == 1
        engine.run()
        report = suite.finalize()
        assert report.ok
        assert engine._observers == []
        assert network.realloc_observers == []
        assert network.warning_observers == []
        assert isinstance(suite.order_digest, int)

    def test_respects_disabled_rules(self):
        from repro.analysis import DEFAULT_REGISTRY

        engine = Engine()
        scoped = DEFAULT_REGISTRY.scoped(disable=["SZ001"])
        suite = RuntimeSuite(registry=scoped).attach(engine=engine)
        # Only the tie-order detector (RC001) observes the engine.
        assert engine._observers == [suite._tie.observe]


# ----------------------------------------------------------------------
# Static plan checks (the DV rules verify runs before instancing)
# ----------------------------------------------------------------------
class TestTaskGraphLint:
    def test_clean_graph(self):
        builder = PlanBuilder()
        a = builder.add_compute("a", "gpu0", 1e-3)
        b = builder.add_transfer("b", "gpu0", "gpu1", 1e6, deps=[a])
        builder.add_compute("c", "gpu1", 1e-3, deps=[b])
        assert verify_plan(builder.finish(), topology=RING2).ok

    def test_cycle_is_dv001(self):
        builder = PlanBuilder()
        # Close the loop a -> b -> a: a depends on the later row b.
        a = builder.add_compute("a", "gpu0", 1e-3, deps=[1])
        builder.add_compute("b", "gpu1", 1e-3, deps=[a])
        report = verify_plan(builder.finish(), topology=RING2)
        assert report.rule_ids() == ["DV001"]
        assert "points forward" in report.findings[0].message
        assert report.has_errors

    def test_unknown_endpoint_is_dv001(self):
        builder = PlanBuilder()
        builder.add_transfer("t", "gpu0", "gpu7", 1e6)
        report = verify_plan(builder.finish(), topology=RING2)
        assert report.rule_ids() == ["DV001"]
        assert "gpu7" in report.findings[0].message
        assert report.findings[0].detail["endpoint"] == "gpu7"

    def test_endpoint_check_needs_topology(self):
        builder = PlanBuilder()
        builder.add_transfer("t", "gpu0", "gpu7", 1e6)
        assert verify_plan(builder.finish()).ok  # endpoint check skipped

    def test_dangling_dependency_is_dv001(self):
        builder = PlanBuilder()
        a = builder.add_compute("a", "gpu0", 1e-3)
        builder.add_compute("b", "gpu0", 1e-3, deps=[a, a])
        plan = builder.finish()
        plan.dep_idx[1] = 7  # b now waits on a task the plan lacks
        report = verify_plan(plan, topology=RING2)
        assert report.rule_ids() == ["DV001"]
        assert "index 7 is out of range" in report.findings[0].message

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
        assert excinfo.value.report.rule_ids() == ["DV001"]
        assert "points forward" in str(excinfo.value)


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
