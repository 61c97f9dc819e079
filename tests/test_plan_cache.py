"""Plan/execute split: correctness of cached-plan paths.

The load-bearing property: for every parallelism mode, the plan paths —
cold build, a build through the cache, and an in-memory cache hit — must
produce **bit-identical** results, including fault runs and sanitizer
findings.  Plus the satellites: plan keys shared by network-only
variants, the PL002 empty-plan lint, the process-level topology cache,
and the fence-boundary clamp for faulted multi-iteration runs.
"""

import pytest

from repro.analysis import lint_plan
from repro.core.config import PARALLELISMS, SimulationConfig
from repro.core.plan import PlanBuilder, PlanCache, plan_key
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
# Property: cold vs built vs cache-hit plan, per parallelism mode
# ----------------------------------------------------------------------
class TestBitIdenticalPaths:
    @pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
    def test_all_plan_paths_bit_identical(self, mode, trace):
        config = SimulationConfig(**MODE_CONFIGS[mode])
        cold = TrioSim(trace, config).run()

        cache = PlanCache()
        built = TrioSim(trace, config, plan_cache=cache).run()
        assert built.profile["plan_source"] == "built"

        hit = TrioSim(trace, config, plan_cache=cache).run()
        assert hit.profile["plan_source"] == "memory"

        expected = payload(cold)
        assert payload(built) == expected
        assert payload(hit) == expected

    def test_fault_runs_and_sanitizer_findings_identical(self, trace):
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
        cache = PlanCache()
        assert run(cache) == cold          # built
        assert run(cache) == cold          # memory hit

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
        variant = SimulationConfig(parallelism="ddp", num_gpus=4,
                                   topology="switch", link_bandwidth=1e9)
        assert (TrioSim(trace, variant).plan_key()
                == TrioSim(trace, built_for).plan_key())

    def test_empty_plan_warned(self):
        plan = PlanBuilder().finish()
        report = lint_plan(plan)
        assert any(f.rule == "PL002" for f in report)
        assert not report.has_errors  # a warning, not an error


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------
class TestPlanCacheMechanics:
    def test_lru_is_bounded(self, monkeypatch):
        monkeypatch.setattr(PlanCache, "MAX_ENTRIES", 2)
        cache = PlanCache()

        def source(key):
            return cache.get_or_build(
                key, lambda: PlanBuilder().finish())[1]

        assert [source(f"k{i}") for i in range(4)] == ["built"] * 4
        assert source("k3") == "memory"
        assert source("k0") == "built"  # evicted by k2 and k3

    def test_builder_rejects_negatives(self):
        builder = PlanBuilder()
        with pytest.raises(ValueError):
            builder.add_compute("t", "gpu0", -1.0)
        with pytest.raises(ValueError):
            builder.add_transfer("t", "gpu0", "gpu1", -1.0)

    @pytest.mark.parametrize("dep", [5, -1])
    def test_plan_names_an_out_of_range_dependency(self, dep):
        builder = PlanBuilder()
        builder.add_barrier("a")
        builder.add_barrier("b", deps=[dep])
        with pytest.raises(ValueError) as error:
            builder.finish()
        assert str(error.value) == (f"task 'b' (row 1): dependency index "
                                    f"{dep} is out of range (plan has 2 tasks)")


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
        baseline = SweepRunner(max_workers=1, plan_cache=False)
        expected = [o.unwrap().total_time
                    for o in baseline.run(trace, configs)]
        runner = SweepRunner(max_workers=1)
        outcomes = runner.run(trace, configs)
        assert [o.unwrap().total_time for o in outcomes] == expected
        metrics = runner.last_metrics
        # The sweep builds the plan once, up front; every point hits it.
        assert metrics.plan_builds == 1
        assert metrics.plan_cache_hits == len(configs)

    def test_result_cache_and_plan_cache_compose(self, trace, tmp_path):
        from repro.service import SweepRunner

        configs = [
            SimulationConfig(parallelism="ddp", num_gpus=2,
                             topology="ring", link_bandwidth=bw)
            for bw in (25e9, 100e9)
        ]
        first = SweepRunner(max_workers=1, cache=tmp_path / "results")
        a = [o.unwrap().total_time for o in first.run(trace, configs)]
        second = SweepRunner(max_workers=1, cache=tmp_path / "results")
        b = [o.unwrap().total_time for o in second.run(trace, configs)]
        assert a == b
        # Every point came from the result cache; no plan work at all.
        assert second.last_metrics.cache_hits == len(configs)
        assert second.last_metrics.plan_builds == 0
