"""Plan/execute split: correctness of cached-plan paths.

The load-bearing property: for every parallelism mode, the plan paths —
cold build, in-memory cache hit, and a plan persisted to disk and loaded
by a fresh cache (the cross-process path) — must produce **bit-identical**
results, including fault runs and sanitizer findings.  Plus the
satellites: plan keys shared by network-only variants, the PL002
empty-plan lint, the process-level topology cache, and the fence-boundary clamp for faulted multi-iteration
runs.
"""

import json

import pytest

from repro.analysis import lint_plan
from repro.core.config import PARALLELISMS, SimulationConfig
from repro.core.plan import (
    ExtrapolationPlan,
    PlanBuilder,
    PlanCache,
    PlanKeyMismatch,
    plan_key,
)
from repro.core.simulator import TrioSim, iteration_times_from_fences
from repro.faults.spec import FaultSpec, LinkFault, Straggler
from repro.gpus.specs import get_gpu
from repro.network import topology as topo_mod
from repro.network.topology import build_topology_cached, clear_topology_cache
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model

#: One representative config per registered parallelism mode.
MODE_CONFIGS = {
    "single": dict(parallelism="single", num_gpus=1),
    "dp": dict(parallelism="dp", num_gpus=4, topology="ring"),
    "ddp": dict(parallelism="ddp", num_gpus=4, topology="ring"),
    "tp": dict(parallelism="tp", num_gpus=4, topology="ring"),
    "pp": dict(parallelism="pp", num_gpus=4, chunks=4, topology="ring"),
    "hybrid": dict(parallelism="hybrid", num_gpus=4, dp_degree=2,
                   chunks=2, topology="ring"),
    "fsdp": dict(parallelism="fsdp", num_gpus=4, topology="ring"),
}


def test_every_registered_mode_is_covered():
    assert set(MODE_CONFIGS) == set(PARALLELISMS)


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 32)


def payload(result):
    """A result's simulation state: everything except host-side timing."""
    data = result.to_dict()
    data.pop("wall_time")
    data.pop("profile")
    return data


# ----------------------------------------------------------------------
# Property: cold vs cache-hit vs persisted plan, per parallelism mode
# ----------------------------------------------------------------------
class TestBitIdenticalPaths:
    @pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
    def test_all_plan_paths_bit_identical(self, mode, trace, tmp_path):
        config = SimulationConfig(**MODE_CONFIGS[mode])
        cold = TrioSim(trace, config).run()

        cache = PlanCache(root=tmp_path / "plans")
        built = TrioSim(trace, config, plan_cache=cache).run()
        assert built.profile["plan_source"] == "built"

        hit = TrioSim(trace, config, plan_cache=cache).run()
        assert hit.profile["plan_source"] == "memory"

        # A fresh cache over the same directory stands in for another
        # process loading the persisted plan.
        other = PlanCache(root=tmp_path / "plans")
        persisted = TrioSim(trace, config, plan_cache=other).run()
        assert persisted.profile["plan_source"] == "disk"

        expected = payload(cold)
        assert payload(built) == expected
        assert payload(hit) == expected
        assert payload(persisted) == expected

    def test_fault_runs_and_sanitizer_findings_identical(self, trace,
                                                         tmp_path):
        faults = FaultSpec(
            seed=5,
            stragglers=(Straggler("gpu1", 0.0, 0.01, 3.0),),
            link_faults=(LinkFault("gpu0-gpu1", 0.0, 0.02, 0.25),),
        )
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="ring", iterations=2,
                                  faults=faults)

        def run(plan_cache):
            sim = TrioSim(trace, config, verify=True,
                          plan_cache=plan_cache)
            result = sim.run()
            return (payload(result), sim.fault_stats,
                    sim.verify_report.to_dicts())

        cold = run(None)
        cache = PlanCache(root=tmp_path / "plans")
        assert run(cache) == cold          # built
        assert run(cache) == cold          # memory hit
        assert run(PlanCache(root=tmp_path / "plans")) == cold  # disk

    def test_multi_iteration_instancing_matches_cold(self, trace):
        config = SimulationConfig(parallelism="pp", num_gpus=4, chunks=4,
                                  topology="ring", iterations=3)
        cache = PlanCache()
        cold = TrioSim(trace, config).run()
        cached = TrioSim(trace, config, plan_cache=cache).run()
        again = TrioSim(trace, config, plan_cache=cache).run()
        assert payload(cached) == payload(cold)
        assert payload(again) == payload(cold)
        assert cold.iteration_times == cached.iteration_times


# ----------------------------------------------------------------------
# Profiler: build counts and instancing
# ----------------------------------------------------------------------
class TestProfiler:
    def test_multi_iteration_builds_graph_once(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="ring", iterations=4)
        result = TrioSim(trace, config).run()
        counters = result.profile["counters"]
        assert counters["extrapolator_builds"] == 1
        # Folding engages by default: only the warm-up iterations are
        # instanced; the rest are extended algebraically.
        assert counters["plan_instances"] == config.fold_warmup
        assert counters["iterations_folded"] == 4 - config.fold_warmup
        assert result.profile["fold_status"] == "folded"
        assert len(result.iteration_times) == 4

    def test_multi_iteration_unfolded_instances_every_iteration(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="ring", iterations=4, fold=False)
        result = TrioSim(trace, config).run()
        counters = result.profile["counters"]
        assert counters["plan_instances"] == 4
        assert "iterations_folded" not in counters
        assert result.profile["fold_status"] == "off:disabled"
        assert len(result.iteration_times) == 4

    def test_cache_hit_runs_zero_builds(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        cache = PlanCache()
        TrioSim(trace, config, plan_cache=cache).run()
        hit = TrioSim(trace, config, plan_cache=cache).run()
        assert hit.profile["counters"].get("extrapolator_builds", 0) == 0
        assert hit.profile["plan_source"] == "memory"

    def test_phases_recorded(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        result = TrioSim(trace, config).run()
        phases = result.profile["phases"]
        for name in ("trace_prep", "plan", "instancing", "engine"):
            assert name in phases
            assert phases[name] >= 0.0

    def test_profile_survives_serialization(self, trace):
        from repro.core.results import SimulationResult

        config = SimulationConfig(parallelism="single", num_gpus=1)
        result = TrioSim(trace, config).run()
        back = SimulationResult.from_json(result.to_json())
        assert back.profile == result.profile


# ----------------------------------------------------------------------
# Plan keys: what shares a plan and what does not
# ----------------------------------------------------------------------
class TestPlanKeys:
    def test_network_parameters_share_a_key(self, trace):
        base = dict(parallelism="ddp", num_gpus=4, topology="ring")
        key = plan_key(trace, SimulationConfig(**base))
        for variant in (
            dict(topology="switch"),
            dict(link_bandwidth=1e9),
            dict(link_latency=5e-6),
            dict(iterations=4),
            dict(gpu_slowdowns={"gpu1": 2.0}),
            dict(faults=FaultSpec(stragglers=(Straggler("gpu0", 0, 1, 2),))),
        ):
            config = SimulationConfig(**{**base, **variant})
            assert plan_key(trace, config) == key, variant

    def test_parallelism_knobs_change_the_key(self, trace):
        base = dict(parallelism="ddp", num_gpus=4, topology="ring")
        key = plan_key(trace, SimulationConfig(**base))
        for variant in (
            dict(num_gpus=8),
            dict(batch_size=64),
            dict(parallelism="dp"),
            dict(collective_scheme="tree"),
            dict(include_host_transfers=True, host_bandwidth=10e9),
        ):
            config = SimulationConfig(**{**base, **variant})
            assert plan_key(trace, config) != key, variant


# ----------------------------------------------------------------------
# Plan keys across network variants, and lint rule PL002
# ----------------------------------------------------------------------
class TestPlanLint:
    def test_network_only_variant_accepts_same_plan(self, trace):
        built_for = SimulationConfig(parallelism="ddp", num_gpus=4,
                                     topology="ring")
        plan = TrioSim(trace, built_for).build_plan()
        variant = SimulationConfig(parallelism="ddp", num_gpus=4,
                                   topology="switch", link_bandwidth=1e9)
        assert TrioSim(trace, variant).plan_key() == plan.key

    def test_empty_plan_warned(self):
        plan = PlanBuilder().finish("0" * 64)
        report = lint_plan(plan)
        assert any(f.rule == "PL002" for f in report)
        assert not report.has_errors  # a warning, not an error


# ----------------------------------------------------------------------
# Plan serialization and the cache itself
# ----------------------------------------------------------------------
#: Each way a plan file is damaged below, and what its rejection says.
REJECTIONS = {
    "not-json": "Expecting", "short-column": "do not have",
    "missing-column": "missing", "unknown-kind": "unknown kind",
    "dep-ptr-not-monotone": "dep_ptr", "dep-ptr-wrong-end": "dep_ptr",
}


def corrupted(data: dict, case: str) -> str:
    """The text of a serialized plan damaged as *case* names."""
    if case == "not-json":
        return "{not json"
    columns, ptr = data["columns"], data["dep_ptr"]
    if case == "short-column":
        columns["name"].pop()
    elif case == "missing-column":
        del columns["meta"]
    elif case == "unknown-kind":
        columns["kind"][0] = 7
    elif case == "dep-ptr-not-monotone":
        ptr[1] = ptr[-1] + 1
    elif case == "dep-ptr-wrong-end":
        ptr[-1] += 1
    return json.dumps(data)


class TestPlanCacheMechanics:
    def test_plan_roundtrips_through_json(self, trace):
        config = SimulationConfig(parallelism="hybrid", num_gpus=4,
                                  dp_degree=2, chunks=2, topology="ring")
        plan = TrioSim(trace, config).build_plan()
        back = ExtrapolationPlan.from_json(plan.to_json())
        assert back.key == plan.key
        assert back.terminal_ids == plan.terminal_ids
        assert back.to_dict() == plan.to_dict()

    def test_unsupported_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            ExtrapolationPlan.from_dict({"schema_version": 99, "key": "x",
                                         "tasks": []})

    def test_lru_is_bounded(self):
        cache = PlanCache(max_entries=2)
        for i in range(4):
            cache.put(f"k{i}", PlanBuilder().finish(f"k{i}"))
        assert len(cache) == 2
        assert cache.get("k0") is None
        assert cache.get("k3") is not None

    def test_key_mismatch_rejected_on_put(self):
        cache = PlanCache()
        with pytest.raises(PlanKeyMismatch):
            cache.put("expected", PlanBuilder().finish("actual"))

    @pytest.mark.parametrize("corrupt", list(REJECTIONS))
    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, trace, corrupt):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        sim = TrioSim(trace, config)
        cache = PlanCache(root=tmp_path)
        key = sim.plan_key()
        cache.get_or_build(key, sim.build_plan)
        path = tmp_path / f"{key}.plan.json"
        text = corrupted(json.loads(path.read_text()), corrupt)
        # A ValueError, never a TypeError, so PlanCache.get rebuilds.
        with pytest.raises(ValueError, match=REJECTIONS[corrupt]):
            ExtrapolationPlan.from_json(text)
        path.write_text(text)
        fresh = PlanCache(root=tmp_path)
        assert fresh.get(key) is None
        assert not path.exists()  # dropped, not left to fail forever
        _plan, source = fresh.get_or_build(key, sim.build_plan)
        assert source == "built"

    def test_builder_rejects_fence_and_negatives(self):
        builder = PlanBuilder()
        with pytest.raises(RuntimeError, match="fence"):
            builder.fence()
        with pytest.raises(ValueError):
            builder.add_compute("t", "gpu0", -1.0)
        with pytest.raises(ValueError):
            builder.add_transfer("t", "gpu0", "gpu1", -1.0)

    def test_stats_count_sources(self, tmp_path, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=2,
                                  topology="ring")
        sim = TrioSim(trace, config)
        cache = PlanCache(root=tmp_path)
        cache.get_or_build(sim.plan_key(), sim.build_plan)
        cache.get_or_build(sim.plan_key(), sim.build_plan)
        fresh = PlanCache(root=tmp_path)
        fresh.get_or_build(sim.plan_key(), sim.build_plan)
        assert cache.stats()["builds"] == 1
        assert cache.stats()["memory_hits"] == 1
        assert fresh.stats()["disk_hits"] == 1


# ----------------------------------------------------------------------
# Satellite: process-level topology cache
# ----------------------------------------------------------------------
class TestTopologyCache:
    def setup_method(self):
        clear_topology_cache()

    def test_same_key_returns_same_graph(self):
        a = build_topology_cached("ring", 4, 25e9, 1e-6)
        b = build_topology_cached("ring", 4, 25e9, 1e-6)
        assert a is b
        assert build_topology_cached("ring", 4, 100e9, 1e-6) is not a

    def test_host_augmentation_cached_per_key(self):
        plain = build_topology_cached("ring", 4, 25e9, 1e-6)
        hosted = build_topology_cached("ring", 4, 25e9, 1e-6,
                                       host=(10e9, 1e-5))
        assert hosted is not plain
        assert "host" not in plain
        assert "host" in hosted
        assert hosted["host"]["gpu2"]["bandwidth"] == 10e9
        assert build_topology_cached("ring", 4, 25e9, 1e-6,
                                     host=(10e9, 1e-5)) is hosted

    def test_cache_is_bounded(self):
        for n in range(topo_mod.TOPOLOGY_CACHE_LIMIT + 5):
            build_topology_cached("ring", 2, 1e9 * (n + 1), 1e-6)
        assert len(topo_mod._TOPOLOGY_CACHE) == topo_mod.TOPOLOGY_CACHE_LIMIT

    def test_fault_run_does_not_mutate_cached_graph(self, trace):
        clear_topology_cache()
        faults = FaultSpec(link_faults=(LinkFault("gpu0-gpu1", 0.0, 1.0,
                                                  0.25),))
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="ring", link_bandwidth=25e9,
                                  faults=faults)
        TrioSim(trace, config).run()
        cached = build_topology_cached("ring", 4, 25e9,
                                       config.link_latency)
        assert cached["gpu0"]["gpu1"]["bandwidth"] == 25e9

    def test_repeat_clean_runs_share_and_match(self, trace):
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="ring")
        first = TrioSim(trace, config).run()
        second = TrioSim(trace, config).run()
        assert payload(first) == payload(second)


# ----------------------------------------------------------------------
# Satellite: fence boundaries clamped to the simulated total
# ----------------------------------------------------------------------
class TestIterationTimeClamp:
    def test_boundary_past_total_is_clamped(self):
        # A faulted run's stall can record a fence end past the finish
        # time; the clamp keeps durations non-negative and telescoping.
        times = iteration_times_from_fences([0.5, 1.2], 1.0)
        assert times == [0.5, 0.5, 0.0]
        assert sum(times) == 1.0

    def test_ordinary_boundaries_unchanged(self):
        assert iteration_times_from_fences([0.25, 0.5], 0.75) == \
            [0.25, 0.25, 0.25]
        assert iteration_times_from_fences([], 0.4) == [0.4]

    def test_faulted_multi_iteration_run_is_consistent(self, trace):
        faults = FaultSpec(
            failures=({"device": "gpu1", "time": 0.005},),
            checkpoint_interval=0.01, checkpoint_cost=0.001,
            restore_cost=0.002,
        )
        config = SimulationConfig(parallelism="ddp", num_gpus=4,
                                  topology="ring", iterations=3,
                                  faults=faults)
        result = TrioSim(trace, config).run()
        assert len(result.iteration_times) == 3
        assert all(t >= 0.0 for t in result.iteration_times)
        assert sum(result.iteration_times) == pytest.approx(
            result.total_time)


# ----------------------------------------------------------------------
# Sweep-service integration (in-process; pool paths are exercised by the
# benchmark and the existing service suite)
# ----------------------------------------------------------------------
class TestServicePlanSharing:
    def test_network_sweep_builds_one_plan(self, trace):
        from repro.service import SweepRunner

        configs = [
            SimulationConfig(parallelism="ddp", num_gpus=4,
                             topology="ring", link_bandwidth=bw)
            for bw in (25e9, 50e9, 100e9, 200e9)
        ]
        baseline = SweepRunner(max_workers=1, plan_cache=None)
        expected = [o.unwrap().total_time
                    for o in baseline.run(trace, configs)]
        runner = SweepRunner(max_workers=1)
        outcomes = runner.run(trace, configs)
        assert [o.unwrap().total_time for o in outcomes] == expected
        metrics = runner.last_metrics
        assert metrics.plan_builds == 1
        assert metrics.plan_cache_hits == len(configs) - 1

    def test_plan_dir_spec_key_accepted(self, tmp_path):
        from repro.service import SweepSpec

        spec = SweepSpec.from_dict({
            "model": "resnet18",
            "base": {"parallelism": "ddp", "num_gpus": 2},
            "axes": {"link_bandwidth": [1e9, 2e9]},
            "plan_dir": str(tmp_path / "plans"),
        })
        assert spec.plan_dir == str(tmp_path / "plans")

    def test_result_cache_and_plan_cache_compose(self, trace, tmp_path):
        from repro.service import SweepRunner

        configs = [
            SimulationConfig(parallelism="ddp", num_gpus=2,
                             topology="ring", link_bandwidth=bw)
            for bw in (25e9, 100e9)
        ]
        first = SweepRunner(max_workers=1, cache=tmp_path / "results",
                            plan_cache=str(tmp_path / "plans"))
        a = [o.unwrap().total_time for o in first.run(trace, configs)]
        second = SweepRunner(max_workers=1, cache=tmp_path / "results",
                             plan_cache=str(tmp_path / "plans"))
        b = [o.unwrap().total_time for o in second.run(trace, configs)]
        assert a == b
        # Every point came from the result cache; no plan work at all.
        assert second.last_metrics.cache_hits == len(configs)
        assert second.last_metrics.plan_builds == 0
