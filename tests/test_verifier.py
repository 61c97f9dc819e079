"""Deep graph verifier (DV rules) and determinism race detectors (RC
rules): each seeded defect fires its own rule, clean graphs verify with
zero findings, and the dispatch-order digest is stable across runs."""

import heapq
import json
import random
import re

import pytest

from repro import SimulationConfig, Tracer, TrioSim, get_gpu, get_model
from repro.analysis import (
    DEFAULT_REGISTRY,
    AnalysisError,
    GraphView,
    Report,
    RuntimeSuite,
    check_catalogue,
    detect_kind,
    plan_summary,
    render_sarif,
    verify_config,
    verify_path,
    verify_plan,
    verify_spec,
)
from repro.analysis.registry import RETIRED_RULES
from repro.cli import main
from repro.core.plan import (
    ExtrapolationPlan,
    PlanBuilder,
    dependency_defects,
)
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.engine.events import Event
from repro.network.flow import FlowNetwork
from repro.network.topology import build_topology
from repro.service.runner import SweepRunner
from tests.plan_edits import plan_file, rewired

#: A 2-GPU ring: the topology DV001 checks transfer endpoints against.
RING2 = build_topology("ring", 2, 100e9, 1e-6)

#: The key the plan files written here carry; their readers never look
#: it up.
FILE_KEY = "0" * 64


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), batch_size=32)


@pytest.fixture(scope="module")
def plan(trace):
    sim = TrioSim(trace, SimulationConfig(parallelism="ddp", num_gpus=4),
                  record_timeline=False)
    return sim.build_plan()


def make_sim(num_gpus=4):
    engine = Engine()
    topology = build_topology("ring", num_gpus, 100e9, 1e-6)
    network = FlowNetwork(engine, topology)
    return TaskGraphSimulator(engine, network), engine, topology


def rule_ids(report):
    return set(report.rule_ids())


# ----------------------------------------------------------------------
# Seeded defects: each fixture trips exactly its own DV rule
# ----------------------------------------------------------------------
class TestSeededDefects:
    def test_dv001_self_dependency(self):
        builder = PlanBuilder()
        builder.add_compute("selfish", "gpu0", 1e-3, deps=[0])
        report = verify_plan(builder.finish(), topology=RING2)
        assert rule_ids(report) == {"DV001"}
        assert "depends on itself" in report.findings[0].message

    def test_dv001_negative_duration(self):
        builder = PlanBuilder()
        builder.add_compute("fwd", "gpu0", 1e-3)
        plan = builder.finish()
        # PlanBuilder rejects a negative duration; a faulty recorder
        # could still leave one in the columns.
        plan.columns["duration"][0] = -1.0
        report = verify_plan(plan)
        assert rule_ids(report) == {"DV001"}

    def test_dv001_fence_cycle(self):
        builder = PlanBuilder()
        # Seed the deadlock: the work depends on the fence that waits on
        # it — in a plan, a forward dependency.
        work = builder.add_compute("fwd", "gpu0", 1e-3, deps=[1])
        builder.add_barrier("iteration_fence[0]", deps=[work])
        report = verify_plan(builder.finish(), topology=RING2)
        assert rule_ids(report) == {"DV001"}
        finding = report.findings[0]
        assert "'fwd'" in finding.message
        assert "points forward" in finding.message

    def test_dv001_dangling_dependency(self):
        builder = PlanBuilder()
        producer = builder.add_compute("producer", "gpu0", 1e-3)
        builder.add_compute("orphan", "gpu1", 1e-3, deps=[producer, producer])
        plan = builder.finish()
        # A plan cannot be built with an index past its rows; corrupt one
        # afterwards, so the orphan waits on a task that never exists.
        plan.dep_idx[1] = 7
        report = verify_plan(plan)
        assert rule_ids(report) == {"DV001"}
        finding = report.findings[0]
        assert "'orphan'" in finding.message
        assert "out of range" in finding.message

    def test_dv001_names_every_malformed_row(self):
        builder = PlanBuilder()
        head = builder.add_compute("head", "gpu0", 1e-3, deps=[1])
        builder.add_compute("tail", "gpu1", 1e-3, deps=[head, 1])
        report = verify_plan(builder.finish())
        assert rule_ids(report) == {"DV001"}
        messages = " ".join(f.message for f in report.findings)
        assert "head" in messages and "tail" in messages

    def test_dv004_split_collective(self):
        builder = PlanBuilder()
        # One tag, two disconnected islands: {gpu0, gpu1} and {gpu2, gpu3}.
        for src, dst in (("gpu0", "gpu1"), ("gpu1", "gpu0"),
                         ("gpu2", "gpu3"), ("gpu3", "gpu2")):
            builder.add_transfer(f"ar.{src}.{dst}", src, dst, 1024,
                                 collective="allreduce[0]")
        report = verify_plan(builder.finish())
        assert rule_ids(report) == {"DV004"}
        finding = report.findings[0]
        assert "2 disconnected rank groups" in finding.message
        # Critical-path/slack annotation rides in the detail dict.
        assert "critical_path_s" in finding.detail
        assert "on_critical_path" in finding.detail

    def test_dv004_role_asymmetry(self):
        builder = PlanBuilder()
        # gpu0/gpu1/gpu2 exchange symmetrically; gpu3 only sends.
        for src, dst in (("gpu0", "gpu1"), ("gpu1", "gpu2"),
                         ("gpu2", "gpu0"), ("gpu3", "gpu0")):
            builder.add_transfer(f"ar.{src}.{dst}", src, dst, 1024,
                                 collective="allreduce[1]")
        report = verify_plan(builder.finish())
        assert rule_ids(report) == {"DV004"}
        assert "sends but never receives" in report.findings[0].message

    def test_dv004_sequence_inversion(self):
        builder = PlanBuilder()
        # gpu0 enters collective A then B; gpu1 enters B then A.
        builder.add_transfer("a0", "gpu0", "gpu2", 8, collective="A")
        builder.add_transfer("b0", "gpu1", "gpu3", 8, collective="B")
        builder.add_transfer("b1", "gpu0", "gpu3", 8, collective="B")
        builder.add_transfer("a1", "gpu1", "gpu2", 8, collective="A")
        report = verify_plan(builder.finish())
        assert rule_ids(report) == {"DV004"}
        assert "ordering inversion" in report.findings[0].message

    def test_dv005_peak_memory(self):
        builder = PlanBuilder()
        ready = builder.add_barrier("ready")
        # 100 GB staged at once on gpu0 — over the A100's ~74.5 GiB.
        for i in range(4):
            builder.add_transfer(f"stage.{i}", "gpu1", "gpu0", 25e9,
                                 deps=[ready])
        config = SimulationConfig(parallelism="ddp", num_gpus=2, gpu="A100")
        report = verify_plan(builder.finish(), config=config)
        assert rule_ids(report) == {"DV005"}
        assert "cannot fit" in report.findings[0].message

    def test_scoped_disable(self):
        builder = PlanBuilder()
        builder.add_compute("selfish", "gpu0", 1e-3, deps=[0])
        plan = builder.finish()
        scoped = DEFAULT_REGISTRY.scoped(disable=["DV001"])
        assert verify_plan(plan, registry=scoped).ok
        assert not verify_plan(plan).ok

    def test_gates_suppress_deep_rules(self):
        # A malformed plan must not also drown the report in deep-rule
        # noise: DV001 is a gate, so DV004 is skipped once it fires.
        builder = PlanBuilder()
        a = builder.add_compute("a", "gpu0", 1e-3, deps=[1])
        builder.add_compute("b", "gpu1", 1e-3, deps=[a])
        for src, dst in (("gpu0", "gpu1"), ("gpu2", "gpu3")):
            builder.add_transfer(f"ar.{src}.{dst}", src, dst, 1024,
                                 collective="allreduce[0]")
        plan = builder.finish()
        assert rule_ids(verify_plan(plan)) == {"DV001"}
        scoped = DEFAULT_REGISTRY.scoped(disable=["DV001"])
        assert rule_ids(verify_plan(plan, registry=scoped)) == {"DV004"}


# ----------------------------------------------------------------------
# Clean graphs: zero findings
# ----------------------------------------------------------------------
#: One plan per parallelism, on the module's ResNet-18 trace.
PARALLELISMS = [
    ("single", {"num_gpus": 1}),
    ("dp", {"num_gpus": 4}),
    ("ddp", {"num_gpus": 4}),
    ("tp", {"num_gpus": 4}),
    ("pp", {"num_gpus": 4, "chunks": 4}),
    ("fsdp", {"num_gpus": 4}),
    ("hybrid", {"num_gpus": 4, "dp_degree": 2}),
]

#: ``plan_summary`` of each plan: critical-path length (``float.hex``),
#: witness-path task count, static peak transfer bytes.
SUMMARY_PINS = {
    "single": ("0x1.e294599e4b14ap-8", 177, 0),
    "dp": ("0x1.3d5c9070d41b5p-6", 184, 66025632),
    "ddp": ("0x1.10da5447e50c6p-7", 189, 7726056),
    "tp": ("0x1.03e024bdb43a6p-5", 513, 25690112),
    "pp": ("0x1.56ddbd96dd62ep-8", 279, 12845056),
    "fsdp": ("0x1.5e781ac3c220dp-7", 199, 11689512),
    "hybrid": ("0x1.0e11ab26f12e6p-7", 154, 22621136),
}


class TestCleanGraphs:
    @pytest.mark.parametrize("parallelism,kwargs", PARALLELISMS)
    def test_zero_findings_across_parallelisms(self, trace, parallelism,
                                               kwargs):
        config = SimulationConfig(parallelism=parallelism, **kwargs)
        sim = TrioSim(trace, config, record_timeline=False)
        report = verify_plan(sim.build_plan(), config=config)
        assert report.ok and not report.findings, \
            [str(f) for f in report]

    @pytest.mark.parametrize("parallelism,kwargs", PARALLELISMS)
    def test_plan_summary_pinned(self, trace, parallelism, kwargs):
        config = SimulationConfig(parallelism=parallelism, **kwargs)
        plan = TrioSim(trace, config, record_timeline=False).build_plan()
        summary = plan_summary(plan, config)
        assert (float(summary["critical_path_s"]).hex(),
                summary["critical_tasks"],
                summary["peak_transfer_bytes"]) == SUMMARY_PINS[parallelism]

    def test_verify_config_clean(self, trace):
        report = verify_config(
            SimulationConfig(parallelism="ddp", num_gpus=4), trace)
        assert report.ok and not report.findings

    def test_verify_spec_dedups_plan_keys(self, tmp_path, trace):
        # Network-only axes share one plan key: the deep tier runs once.
        spec = {
            "model": "resnet18", "batch": 32,
            "base": {"parallelism": "ddp", "num_gpus": 4},
            "axes": {"link_bandwidth": [25e9, 100e9, 234e9, 400e9],
                     "link_latency": [1e-6, 2e-6]},
        }
        report = verify_spec(spec)
        assert report.ok and not report.findings

    def test_verify_spec_loads_its_trace_once(self, monkeypatch):
        from repro.service.spec import SweepSpec

        calls = []
        load_trace = SweepSpec.load_trace

        def counting(self, *args, **kwargs):
            calls.append(self)
            return load_trace(self, *args, **kwargs)

        monkeypatch.setattr(SweepSpec, "load_trace", counting)
        spec = {"model": "resnet18", "batch": 16,
                "base": {"parallelism": "ddp"},
                "axes": {"num_gpus": [2, 4]}}
        assert verify_spec(spec).ok
        assert len(calls) == 1

    def test_graphview_summary(self, plan):
        config = SimulationConfig(parallelism="ddp", num_gpus=4)
        summary = GraphView.from_plan(plan).summary(config)
        assert summary["tasks"] == len(plan)
        assert summary["critical_path_s"] > 0
        assert summary["peak_transfer_bytes"] > 0
        assert summary["compute"] > summary["barrier"]


# ----------------------------------------------------------------------
# Determinism race detectors (Tier B)
# ----------------------------------------------------------------------
class TestRaceDetectors:
    def test_rc001_bypassed_schedule(self):
        # A heap entry pushed around Engine.schedule carries a stamped
        # sequence number that disagrees with its heap position.
        engine = Engine()
        suite = RuntimeSuite().attach(engine=engine)
        event = Event(1.0, lambda e: None)
        event._seq = 99
        heapq.heappush(engine._queue, (1.0, 7, event))
        engine.run()
        report = suite.finalize()
        assert rule_ids(report) == {"RC001"}
        assert "bypassed Engine.schedule" in report.findings[0].message
        assert suite.order_digest is not None

    def test_rc001_sequence_reuse(self):
        # An extension that rewinds the sequence counter makes two
        # same-timestamp events pop with duplicate tie-breakers.
        engine = Engine()
        suite = RuntimeSuite().attach(engine=engine)

        def rewind(event):
            engine._seq = 0
            engine.schedule(Event(1.0, lambda e: None))

        engine.schedule(Event(1.0, rewind))
        engine.run()
        report = suite.finalize()
        assert rule_ids(report) == {"RC001"}

    def test_rc001_silent_on_clean_engine(self):
        engine = Engine()
        suite = RuntimeSuite().attach(engine=engine)
        for _ in range(5):
            engine.schedule(Event(1.0, lambda e: None))
        engine.run()
        assert suite.finalize().ok

    def test_rc002_start_before_dependency_finishes(self):
        sim, _, _ = make_sim(2)
        builder = PlanBuilder()
        slow = builder.add_compute("slow_dep", "gpu0", 1.0)
        eager = builder.add_compute("eager", "gpu1", 0.1, deps=[slow])
        builder.finish().instantiate_iterations(sim, 1)
        # Races ahead of its dependency.
        sim.store.indegree[eager] = 0
        suite = RuntimeSuite().attach(sim=sim)
        sim.run()
        report = suite.finalize()
        assert "RC002" in rule_ids(report)
        assert "linear extension" in report.findings[0].message

    def test_rc003_global_rng_draw(self):
        suite = RuntimeSuite().attach()
        random.random()
        report = suite.finalize()
        assert rule_ids(report) == {"RC003"}
        assert report.findings[0].location == "random"

    def test_rc003_numpy_drift(self):
        import numpy as np

        suite = RuntimeSuite().attach()
        np.random.random()
        report = suite.finalize()
        assert rule_ids(report) == {"RC003"}
        assert report.findings[0].location == "numpy.random"

    def test_rc003_silent_without_draws(self):
        suite = RuntimeSuite().attach()
        rng = random.Random(7)  # seeded local generators are fine
        rng.random()
        assert suite.finalize().ok


# ----------------------------------------------------------------------
# TrioSim / sweep integration
# ----------------------------------------------------------------------
class TestVerifyIntegration:
    def test_runtime_tier_runs_every_sz_and_rc_check(self, trace,
                                                     monkeypatch):
        import repro.analysis.sanitizers as sz
        import repro.analysis.verifier.races as rc
        from repro.faults import FaultSpec, LinkFault, Straggler

        ran = set()
        for cls, method, rule in (
            (sz.TimeMonotonicSanitizer, "observe", "SZ001"),
            (sz.LinkCapacitySanitizer, "observe", "SZ002"),
            (sz.HeapLeakSanitizer, "check", "SZ003"),
            (sz.RestartConsistencySanitizer, "check", "SZ005"),
            (sz.PathCapacitySanitizer, "observe", "SZ006"),
            (rc.TieOrderDetector, "observe", "RC001"),
            (rc.HappensBeforeDetector, "check", "RC002"),
            (rc.RngDriftDetector, "compare", "RC003"),
        ):
            def spy(self, *args, _check=getattr(cls, method), _rule=rule,
                    **kwargs):
                ran.add(_rule)
                return _check(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, spy)
        # SZ004 runs only when the allocator warns, which a clean run
        # never does: it must be attached to the network's warning list.
        warning_checks = []
        attach = rc.RuntimeSuite.attach

        def spy_attach(self, *args, **kwargs):
            suite = attach(self, *args, **kwargs)
            warning_checks.extend(type(observer.__self__) for observer in
                                  kwargs["network"].warning_observers)
            return suite

        monkeypatch.setattr(rc.RuntimeSuite, "attach", spy_attach)
        faults = FaultSpec(stragglers=(Straggler("gpu1", 0.0, 0.002, 2.0),),
                           link_faults=(LinkFault("gpu0-gpu1", 0.0, 0.002,
                                                  0.5),))
        sim = TrioSim(trace, SimulationConfig(parallelism="ddp", num_gpus=4,
                                              faults=faults),
                      verify=True)
        sim.run()
        assert sim.verify_report.ok
        assert ran == {"SZ001", "SZ002", "SZ003", "SZ005", "SZ006",
                       "RC001", "RC002", "RC003"}
        assert warning_checks == [sz.AllocatorWarningSanitizer]

    def test_clean_run_zero_findings_and_stable_digest(self, trace):
        digests = []
        for _ in range(2):
            sim = TrioSim(trace,
                          SimulationConfig(parallelism="ddp", num_gpus=4),
                          verify=True)
            sim.run()
            assert sim.verify_report.ok and not sim.verify_report.findings
            assert isinstance(sim.verify_digest, int)
            digests.append(sim.verify_digest)
        assert digests[0] == digests[1]

    def test_digest_differs_across_workloads(self, trace):
        digests = []
        for gpus in (2, 4):
            sim = TrioSim(trace,
                          SimulationConfig(parallelism="ddp", num_gpus=gpus),
                          verify=True)
            sim.run()
            digests.append(sim.verify_digest)
        assert digests[0] != digests[1]

    def test_config_rules_run_before_the_plan(self, trace, monkeypatch):
        # A link fault on a link the topology lacks fails as FT002 with
        # no plan built; the runtime-only tier leaves the config rules
        # to its caller.
        from repro.faults import FaultSpec, LinkFault

        faults = FaultSpec(link_faults=(LinkFault("gpu0-gpu9", 0.0, 0.002,
                                                  0.5),))
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  faults=faults)

        def no_plan(self):
            raise AssertionError("plan built before the config rules ran")

        monkeypatch.setattr(TrioSim, "build_plan", no_plan)
        with pytest.raises(AnalysisError) as info:
            TrioSim(trace, config, verify=True).run()
        assert info.value.report.rule_ids() == ["FT002"]
        with pytest.raises(AssertionError, match="plan built"):
            TrioSim(trace, config, verify="runtime").run()

    def test_races_only_tier(self, trace):
        sim = TrioSim(trace, SimulationConfig(parallelism="ddp", num_gpus=2),
                      verify="runtime")
        sim.run()
        assert sim.verify_report.ok
        assert isinstance(sim.verify_digest, int)

    def test_sweep_verify_clean(self, trace):
        configs = [SimulationConfig(parallelism="ddp", num_gpus=4,
                                    link_bandwidth=bw)
                   for bw in (25e9, 100e9)]
        runner = SweepRunner(max_workers=1, cache=None, verify=True)
        outcomes = runner.run(trace, configs)
        assert all(o.error is None for o in outcomes)
        assert all(not o.sanitizer_findings for o in outcomes)

    def test_sweep_verify_rejects_bad_plan(self, trace, monkeypatch):
        from repro.analysis import Finding
        import repro.analysis.verifier as verifier

        def seeded_failure(plan, config=None, registry=None):
            return Report([Finding("DV001", "verify-structure", "error",
                                   "seeded verification failure")])

        monkeypatch.setattr(verifier, "verify_plan", seeded_failure)
        runner = SweepRunner(max_workers=1, cache=None, verify=True)
        outcomes = runner.run(
            trace, [SimulationConfig(parallelism="ddp", num_gpus=2)])
        assert outcomes[0].error is not None
        assert outcomes[0].error.kind == "VerifyError"
        assert "seeded verification failure" in outcomes[0].error.message


    def test_one_verdict_for_a_forward_dependency(self, trace,
                                                  monkeypatch):
        # The same broken plan gets the same rule id from every static
        # entry point: the simulator's gate, the sweep's plan step and
        # verify_config all check the plan with verify_plan.
        original = TrioSim.build_plan

        def forward_plan(self):
            plan = original(self)
            consumer = int(plan.succ_idx[plan.succ_ptr[0]])
            return rewired(plan, 0, [consumer])

        monkeypatch.setattr(TrioSim, "build_plan", forward_plan)
        config = SimulationConfig(parallelism="ddp", num_gpus=2)
        with pytest.raises(AnalysisError) as info:
            TrioSim(trace, config, verify=True).run()
        assert info.value.report.rule_ids() == ["DV001"]
        outcome, = SweepRunner(max_workers=1, cache=None,
                               verify=True).run(trace, [config])
        assert outcome.error.kind == "VerifyError"
        assert set(re.findall(r"\bDV\d{3}\b",
                              outcome.error.message)) == {"DV001"}
        assert verify_config(config, trace).rule_ids() == ["DV001"]


# ----------------------------------------------------------------------
# Plans, path dispatch, and kind detection
# ----------------------------------------------------------------------
class TestPlanVerification:
    @pytest.mark.parametrize("parallelism,kwargs", PARALLELISMS)
    def test_edges_point_backward_and_dv001_tracks_defects(
            self, trace, parallelism, kwargs):
        # Every edge of the lowering runs from an earlier row to a later
        # one (row order is topological), and DV001 fires exactly when
        # the plan holds a malformed dependency.
        config = SimulationConfig(parallelism=parallelism, **kwargs)
        plan = TrioSim(trace, config, record_timeline=False).build_plan()
        n = len(plan)
        rng = random.Random(n)
        seeded = [plan]
        for _ in range(3):
            row = rng.randrange(1, n)
            seeded.append(rewired(plan, row, [row]))
            if row < n - 1:
                seeded.append(rewired(plan, row, [0, rng.randrange(row + 1,
                                                                   n)]))
            bad = rewired(plan, row, [0, row - 1])
            # A plan cannot be built with an index outside its rows; set
            # one afterwards.
            bad.dep_idx[bad.dep_ptr[row] + 1] = rng.choice([-1, n, n + 7])
            seeded.append(bad)
        for candidate in seeded:
            view = GraphView.from_plan(candidate)
            for row in range(n):
                assert all(dep < row for dep in view.deps[row])
                assert all(row < target for target in view.dependents[row])
            defects = dependency_defects(candidate.dep_ptr,
                                         candidate.dep_idx)
            fired = "DV001" in rule_ids(verify_plan(candidate))
            assert fired == bool(defects)
            assert bool(defects) == (candidate is not plan)

    def test_graphview_flags_tampered_plan(self, plan):
        # Self dependency: row 3's first index is itself.
        assert plan.dep_ptr[4] > plan.dep_ptr[3]
        dep_idx = plan.dep_idx.copy()
        dep_idx[plan.dep_ptr[3]] = 3
        clone = ExtrapolationPlan(plan.columns, plan.dep_ptr, dep_idx)
        report = verify_plan(clone)
        assert rule_ids(report) == {"DV001"}
        assert "depends on itself" in report.findings[0].message

    def test_detect_kind_plan_and_faults(self, plan):
        # Plan files are no longer an input kind: one reads as a config.
        assert detect_kind(plan_file(plan, FILE_KEY)) == "config"
        assert detect_kind({"stragglers": [
            {"gpu": "gpu1", "factor": 2.0}]}) == "faults"

    def test_verify_path_plan(self, tmp_path, plan):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan_file(plan, FILE_KEY)))
        report, kind, info = verify_path(path)
        assert kind == "config" and report.has_errors
        assert rule_ids(report) == {"CF011"}
        assert "summary" not in info

    def test_verify_path_corrupt_plan(self, tmp_path, plan):
        data = plan_file(rewired(plan, 0, [5]), FILE_KEY)
        del data["columns"]["meta"]
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(data))
        report, kind, _ = verify_path(path)
        assert kind == "config"
        assert rule_ids(report) == {"CF011"}

    def test_verify_path_trace_with_config(self, tmp_path, trace):
        path = tmp_path / "trace.json"
        trace.save(path)
        config = SimulationConfig(parallelism="ddp", num_gpus=4)
        report, kind, info = verify_path(path, config=config)
        assert kind == "trace" and report.ok
        assert info["summary"]["critical_path_s"] > 0

    def test_verify_path_faults_example(self):
        from pathlib import Path

        example = (Path(__file__).parent.parent
                   / "examples/faults_stragglers.json")
        report, kind, _ = verify_path(example)
        assert kind == "faults" and report.ok


# ----------------------------------------------------------------------
# Catalogue and SARIF
# ----------------------------------------------------------------------
class TestCatalogueAndSarif:
    def test_catalogue_is_complete(self):
        assert check_catalogue() == []
        assert [r.id for r in DEFAULT_REGISTRY.rules(enabled_only=False)
                if r.id.startswith("PL")] == ["PL002"]

    def test_catalogue_flags_reused_retired_id(self):
        from repro.analysis.registry import RuleRegistry, Rule

        registry = RuleRegistry()
        registry.register(Rule(id="PL001", name="a", category="plan",
                               severity="error", description="d"))
        problems = check_catalogue(registry)
        assert any("retired" in p and "PL001" in p for p in problems)

    def test_catalogue_covers_verifier_series(self):
        ids = {r.id for r in DEFAULT_REGISTRY.rules()}
        for rule_id in ("DV001", "DV004", "DV005",
                        "RC001", "RC002", "RC003"):
            assert rule_id in ids
        # Cycles and dead tasks cannot survive DV001 in a plan.
        assert RETIRED_RULES["DV"] == (2, 3)
        assert not ids & {"DV002", "DV003"}

    def test_catalogue_flags_missing_rule(self):
        from repro.analysis.registry import RuleRegistry, Rule

        registry = RuleRegistry()
        registry.register(Rule(id="DV001", name="a", category="verify",
                               severity="error", description="d"))
        problems = check_catalogue(registry)
        assert problems and any("DV" in p for p in problems)

    def test_sarif_document_shape(self, tmp_path, plan):
        report = verify_plan(rewired(plan, 0, [5]))
        path = tmp_path / "bad_plan.json"
        doc = json.loads(render_sarif(report, source=str(path)))
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro"
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} == {"DV001"}
        result = run["results"][0]
        assert result["ruleId"] == "DV001" and result["level"] == "error"
        artifact = result["locations"][0]["physicalLocation"]
        assert artifact["artifactLocation"]["uri"] == str(path)

    def test_sarif_levels_and_dedup(self):
        from repro.analysis import Finding

        report = Report([
            Finding("DV001", "verify-structure", "error", "one",
                    location="task[1]", detail={"duration": -1.0}),
            Finding("DV001", "verify-structure", "error", "two"),
            Finding("RC003", "global-rng-drift", "warning", "drift"),
        ])
        doc = json.loads(render_sarif(report))
        run = doc["runs"][0]
        assert len(run["tool"]["driver"]["rules"]) == 2  # deduplicated
        assert len(run["results"]) == 3
        logical = run["results"][0]["locations"][0]["logicalLocations"]
        assert logical[0]["fullyQualifiedName"] == "task[1]"
        assert run["results"][0]["properties"] == {"duration": -1.0}
        assert run["results"][2]["level"] == "warning"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestVerifyCli:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("verify") / "rn18.json"
        Tracer(get_gpu("A100")).trace(get_model("resnet18"),
                                      batch_size=32).save(path)
        return path

    def test_clean_trace_exits_zero(self, trace_file, capsys):
        assert main(["verify", str(trace_file), "--parallelism", "ddp",
                     "--num-gpus", "4"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "graph:" in out and "critical path" in out

    def test_corrupt_plan_exits_one(self, tmp_path, plan, capsys):
        # A plan file, corrupt or not, is an unknown config: one finding
        # and exit 1, not a traceback.
        path = tmp_path / "bad.plan.json"
        path.write_text(json.dumps(plan_file(rewired(plan, 0, [5]), FILE_KEY)))
        assert main(["verify", str(path)]) == 1
        assert "CF011" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["verify", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DV001", "DV004", "DV005",
                        "RC001", "RC002", "RC003"):
            assert rule_id in out
        assert "DV002" not in out and "DV003" not in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["verify"]) == 2

    def test_sarif_format(self, trace_file, capsys):
        assert main(["verify", str(trace_file), "--parallelism", "ddp",
                     "--num-gpus", "2", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"] == []

    def test_disable_flag(self, plan):
        # A tampered plan passes once its (only) firing rule is disabled.
        tampered = rewired(plan, 0, [5])
        assert not verify_plan(tampered).ok
        report = verify_plan(
            tampered, registry=DEFAULT_REGISTRY.scoped(disable=["DV001"]))
        assert report.ok

    def test_simulate_verify_flag(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--parallelism", "ddp",
                     "--num-gpus", "2", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "dispatch-order digest" in out

    def test_simulate_verify_runs_config_rules(self, trace_file, capsys):
        # The example's link faults name ring links a leaf-spine fabric
        # lacks: the config rules report FT002 before the run starts.
        from pathlib import Path

        faults = (Path(__file__).parent.parent
                  / "examples/faults_link_flap.json")
        assert main(["simulate", str(trace_file), "--parallelism", "ddp",
                     "--num-gpus", "8", "--topology", "leaf_spine",
                     "--faults", str(faults), "--verify"]) == 1
        assert "FT002" in capsys.readouterr().out

    def test_example_specs_verify_clean(self, capsys):
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples/ddp_sweep.json"
        assert main(["verify", str(example)]) == 0
