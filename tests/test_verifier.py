"""Deep graph verifier (DV rules) and determinism race detectors (RC
rules): each seeded defect fires its own rule, clean graphs verify with
zero findings, and the dispatch-order digest is stable across runs."""

import heapq
import json
import random

import pytest

from repro import SimulationConfig, Tracer, TrioSim, get_gpu, get_model
from repro.analysis import (
    DEFAULT_REGISTRY,
    GraphView,
    Report,
    RuntimeSuite,
    check_catalogue,
    detect_kind,
    render_sarif,
    verify_config,
    verify_path,
    verify_plan,
    verify_spec,
    verify_taskgraph,
)
from repro.cli import main
from repro.core.plan import ExtrapolationPlan
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.engine.events import Event
from repro.network.flow import FlowNetwork
from repro.network.topology import build_topology
from repro.service.runner import SweepRunner
from tests.plan_edits import set_deps


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
        sim, _, topology = make_sim(2)
        task = sim.add_compute("selfish", "gpu0", 1e-3)
        sim.store.succ[task.task_id] = [task.task_id]
        report = verify_taskgraph(sim, topology=topology)
        assert rule_ids(report) == {"DV001"}
        assert "depends on itself" in report.findings[0].message

    def test_dv001_negative_duration(self):
        sim, _, _ = make_sim(2)
        task = sim.add_compute("fwd", "gpu0", 1e-3)
        sim.store.duration[task.task_id] = -1.0
        report = verify_taskgraph(sim)
        assert rule_ids(report) == {"DV001"}

    def test_dv002_fence_cycle(self):
        sim, _, topology = make_sim(2)
        work = sim.add_compute("fwd", "gpu0", 1e-3)
        fence = sim.add_barrier("iteration_fence[0]", deps=[work])
        # Seed the deadlock: the fence's completion feeds back into the
        # work it waits on.
        sim.store.link(fence.task_id, work.task_id)
        report = verify_taskgraph(sim, topology=topology)
        assert rule_ids(report) == {"DV002"}
        message = report.findings[0].message
        assert "cycle" in message and "fence" in message

    def test_dv003_dead_task(self):
        sim, _, _ = make_sim(2)
        producer = sim.add_compute("producer", "gpu0", 1e-3)
        orphan = sim.add_compute("orphan", "gpu1", 1e-3, deps=[producer])
        # Declares deps no task will ever satisfy.
        sim.store.indegree[orphan.task_id] = 3
        report = verify_taskgraph(sim)
        assert rule_ids(report) == {"DV003"}
        finding = report.findings[0]
        assert "can never run" in finding.message
        # Critical-path/slack annotation rides in the detail dict.
        assert "critical_path_s" in finding.detail
        assert "on_critical_path" in finding.detail

    def test_dv003_downstream_stranding(self):
        sim, _, _ = make_sim(2)
        head = sim.add_compute("head", "gpu0", 1e-3)
        sim.store.indegree[head.task_id] = 1
        tail = sim.add_compute("tail", "gpu1", 1e-3, deps=[head])
        report = verify_taskgraph(sim)
        assert rule_ids(report) == {"DV003"}
        messages = " ".join(f.message for f in report.findings)
        assert "head" in messages and "tail" in messages

    def test_dv004_split_collective(self):
        sim, _, _ = make_sim(4)
        # One tag, two disconnected islands: {gpu0, gpu1} and {gpu2, gpu3}.
        for src, dst in (("gpu0", "gpu1"), ("gpu1", "gpu0"),
                         ("gpu2", "gpu3"), ("gpu3", "gpu2")):
            sim.add_transfer(f"ar.{src}.{dst}", src, dst, 1024,
                             collective="allreduce[0]")
        report = verify_taskgraph(sim)
        assert rule_ids(report) == {"DV004"}
        assert "2 disconnected rank groups" in report.findings[0].message

    def test_dv004_role_asymmetry(self):
        sim, _, _ = make_sim(4)
        # gpu0/gpu1/gpu2 exchange symmetrically; gpu3 only sends.
        for src, dst in (("gpu0", "gpu1"), ("gpu1", "gpu2"),
                         ("gpu2", "gpu0"), ("gpu3", "gpu0")):
            sim.add_transfer(f"ar.{src}.{dst}", src, dst, 1024,
                             collective="allreduce[1]")
        report = verify_taskgraph(sim)
        assert rule_ids(report) == {"DV004"}
        assert "sends but never receives" in report.findings[0].message

    def test_dv004_sequence_inversion(self):
        sim, _, _ = make_sim(4)
        # gpu0 enters collective A then B; gpu1 enters B then A.
        sim.add_transfer("a0", "gpu0", "gpu2", 8, collective="A")
        sim.add_transfer("b0", "gpu1", "gpu3", 8, collective="B")
        sim.add_transfer("b1", "gpu0", "gpu3", 8, collective="B")
        sim.add_transfer("a1", "gpu1", "gpu2", 8, collective="A")
        report = verify_taskgraph(sim)
        assert rule_ids(report) == {"DV004"}
        assert "ordering inversion" in report.findings[0].message

    def test_dv005_peak_memory(self):
        sim, _, _ = make_sim(2)
        ready = sim.add_barrier("ready")
        # 100 GB staged at once on gpu0 — over the A100's ~74.5 GiB.
        for i in range(4):
            sim.add_transfer(f"stage.{i}", "gpu1", "gpu0", 25e9,
                             deps=[ready])
        config = SimulationConfig(parallelism="ddp", num_gpus=2, gpu="A100")
        report = verify_taskgraph(sim, config=config)
        assert rule_ids(report) == {"DV005"}
        assert "cannot fit" in report.findings[0].message

    def test_scoped_disable(self):
        sim, _, _ = make_sim(2)
        task = sim.add_compute("orphan", "gpu0", 1e-3)
        sim.store.indegree[task.task_id] = 2
        scoped = DEFAULT_REGISTRY.scoped(disable=["DV003"])
        assert verify_taskgraph(sim, registry=scoped).ok
        assert not verify_taskgraph(sim).ok

    def test_gates_suppress_deep_rules(self):
        # A cyclic graph must not also drown the report in DV003 noise:
        # DV002 is a gate, so deep rules are skipped once it fires.
        sim, _, _ = make_sim(2)
        a = sim.add_compute("a", "gpu0", 1e-3)
        b = sim.add_compute("b", "gpu1", 1e-3, deps=[a])
        sim.store.link(b.task_id, a.task_id)
        report = verify_taskgraph(sim)
        assert rule_ids(report) == {"DV002"}


# ----------------------------------------------------------------------
# Clean graphs: zero findings
# ----------------------------------------------------------------------
class TestCleanGraphs:
    @pytest.mark.parametrize("parallelism,kwargs", [
        ("single", {"num_gpus": 1}),
        ("dp", {"num_gpus": 4}),
        ("ddp", {"num_gpus": 4}),
        ("tp", {"num_gpus": 4}),
        ("pp", {"num_gpus": 4, "chunks": 4}),
        ("fsdp", {"num_gpus": 4}),
        ("hybrid", {"num_gpus": 4, "dp_degree": 2}),
    ])
    def test_zero_findings_across_parallelisms(self, trace, parallelism,
                                               kwargs):
        config = SimulationConfig(parallelism=parallelism, **kwargs)
        sim = TrioSim(trace, config, record_timeline=False)
        report = verify_plan(sim.build_plan(), config=config)
        assert report.ok and not report.findings, \
            [str(f) for f in report]

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
        slow = sim.add_compute("slow_dep", "gpu0", 1.0)
        eager = sim.add_compute("eager", "gpu1", 0.1, deps=[slow])
        # Races ahead of its dependency.
        sim.store.indegree[eager.task_id] = 0
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
            (sz.LinkCapacitySanitizer, "func", "SZ002"),
            (sz.HeapLeakSanitizer, "check", "SZ003"),
            (sz.AllocatorWarningSanitizer, "func", "SZ004"),
            (sz.RestartConsistencySanitizer, "check", "SZ005"),
            (sz.PathCapacitySanitizer, "func", "SZ006"),
            (rc.TieOrderDetector, "observe", "RC001"),
            (rc.HappensBeforeDetector, "func", "RC002"),
            (rc.RngDriftDetector, "compare", "RC003"),
        ):
            def spy(self, *args, _check=getattr(cls, method), _rule=rule,
                    **kwargs):
                ran.add(_rule)
                return _check(self, *args, **kwargs)

            monkeypatch.setattr(cls, method, spy)
        faults = FaultSpec(stragglers=(Straggler("gpu1", 0.0, 0.002, 2.0),),
                           link_faults=(LinkFault("gpu0-gpu1", 0.0, 0.002,
                                                  0.5),))
        sim = TrioSim(trace, SimulationConfig(parallelism="ddp", num_gpus=4,
                                              faults=faults),
                      verify=True)
        sim.run()
        assert sim.verify_report.ok
        assert ran == {"SZ001", "SZ002", "SZ003", "SZ004", "SZ005",
                       "SZ006", "RC001", "RC002", "RC003"}

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
            return Report([Finding("DV003", "verify-dead-task", "error",
                                   "seeded verification failure")])

        monkeypatch.setattr(verifier, "verify_plan", seeded_failure)
        runner = SweepRunner(max_workers=1, cache=None, verify=True)
        outcomes = runner.run(
            trace, [SimulationConfig(parallelism="ddp", num_gpus=2)])
        assert outcomes[0].error is not None
        assert outcomes[0].error.kind == "VerifyError"
        assert "seeded verification failure" in outcomes[0].error.message


# ----------------------------------------------------------------------
# Plans, path dispatch, and kind detection
# ----------------------------------------------------------------------
class TestPlanVerification:
    def test_plan_round_trip_verifies_clean(self, plan):
        clone = ExtrapolationPlan.from_json(plan.to_json())
        assert verify_plan(clone).ok

    @pytest.mark.parametrize("row,dep", [
        (0, 5), (-1, 10 ** 9), (3, 3), (-1, -1), (-1, 2.5), (-1, "3"),
        (-1, True),
    ], ids=["forward", "out-of-range", "self", "negative", "float",
            "string", "bool"])
    def test_from_dict_rejects_bad_dep(self, plan, row, dep):
        data = set_deps(plan.to_dict(), row % len(plan), [dep])
        with pytest.raises(ValueError, match="invalid dependency index"):
            ExtrapolationPlan.from_dict(data)

    def test_graphview_flags_tampered_plan(self, plan):
        clone = ExtrapolationPlan.from_json(plan.to_json())
        # Self dependency, post-validation: row 3's first index is itself.
        assert clone.dep_ptr[4] > clone.dep_ptr[3]
        clone.dep_idx[clone.dep_ptr[3]] = 3
        report = verify_plan(clone)
        assert rule_ids(report) == {"DV001"}
        assert "depends on itself" in report.findings[0].message

    def test_detect_kind_plan_and_faults(self, plan):
        assert detect_kind(plan.to_dict()) == "plan"
        assert detect_kind({"stragglers": [
            {"gpu": "gpu1", "factor": 2.0}]}) == "faults"

    def test_verify_path_plan(self, tmp_path, plan):
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        report, kind, info = verify_path(path)
        assert kind == "plan" and report.ok
        assert info["summary"]["tasks"] == len(plan)

    def test_verify_path_corrupt_plan(self, tmp_path, plan):
        data = set_deps(plan.to_dict(), 0, [5])
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(data))
        report, kind, _ = verify_path(path)
        assert kind == "plan"
        assert rule_ids(report) == {"DV001"}
        assert "does not deserialize" in report.findings[0].message

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

    def test_catalogue_covers_verifier_series(self):
        ids = {r.id for r in DEFAULT_REGISTRY.rules()}
        for rule_id in ("DV001", "DV002", "DV003", "DV004", "DV005",
                        "RC001", "RC002", "RC003"):
            assert rule_id in ids

    def test_catalogue_flags_missing_rule(self):
        from repro.analysis.registry import RuleRegistry, Rule

        registry = RuleRegistry()
        registry.register(Rule(id="DV001", name="a", category="verify",
                               severity="error", description="d"))
        problems = check_catalogue(registry)
        assert problems and any("DV" in p for p in problems)

    def test_sarif_document_shape(self, tmp_path, plan):
        data = set_deps(plan.to_dict(), 0, [5])
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(data))
        report, _, _ = verify_path(path)
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
            Finding("DV003", "verify-dead-task", "error", "one",
                    location="task[1]", detail={"declared": 2}),
            Finding("DV003", "verify-dead-task", "error", "two"),
            Finding("RC003", "global-rng-drift", "warning", "drift"),
        ])
        doc = json.loads(render_sarif(report))
        run = doc["runs"][0]
        assert len(run["tool"]["driver"]["rules"]) == 2  # deduplicated
        assert len(run["results"]) == 3
        logical = run["results"][0]["locations"][0]["logicalLocations"]
        assert logical[0]["fullyQualifiedName"] == "task[1]"
        assert run["results"][0]["properties"] == {"declared": 2}
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
        data = set_deps(plan.to_dict(), 0, [5])
        path = tmp_path / "bad_plan.json"
        path.write_text(json.dumps(data))
        assert main(["verify", str(path)]) == 1
        assert "DV001" in capsys.readouterr().out

    def test_clean_plan_exits_zero(self, tmp_path, plan, capsys):
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert main(["verify", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["verify", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DV001", "DV002", "DV003", "DV004", "DV005",
                        "RC001", "RC002", "RC003"):
            assert rule_id in out

    def test_missing_path_is_usage_error(self, capsys):
        assert main(["verify"]) == 2

    def test_sarif_format(self, trace_file, capsys):
        assert main(["verify", str(trace_file), "--parallelism", "ddp",
                     "--num-gpus", "2", "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"] == []

    def test_disable_flag(self, tmp_path, capsys):
        # A tampered plan passes once its (only) firing rule is disabled.
        sim, _, _ = make_sim(2)
        task = sim.add_compute("orphan", "gpu0", 1e-3)
        sim.store.indegree[task.task_id] = 2
        report = verify_taskgraph(
            sim, registry=DEFAULT_REGISTRY.scoped(disable=["DV003"]))
        assert report.ok

    def test_simulate_verify_flag(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--parallelism", "ddp",
                     "--num-gpus", "2", "--verify"]) == 0
        out = capsys.readouterr().out
        assert "dispatch-order digest" in out

    def test_example_specs_verify_clean(self, capsys):
        from pathlib import Path

        example = Path(__file__).parent.parent / "examples/ddp_sweep.json"
        assert main(["verify", str(example)]) == 0
