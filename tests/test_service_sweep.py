"""Tests for the parallel sweep service (repro.service).

The service's contract: parallel, in-process, and cache-replayed runs are
all bit-identical to a sequential ``TrioSim`` loop; shared work (cross-GPU
rescaling, perf-model fits) happens once per ``(trace, target GPU)`` in a
process; a failing point degrades to a structured error record; and
progress streams through the engine's hook mechanism.
"""

import json
import pickle
from concurrent.futures import Future

import networkx as nx
import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.extrapolator import optime
from repro.extrapolator.optime import clear_prepared
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.topology import build_topology
from repro.perfmodel.scaling import CrossGPUScaler
from repro.service import worker as worker_mod
from repro.service.cache import ResultCache, trace_digest
from repro.service.runner import (
    HOOK_SWEEP_END,
    HOOK_SWEEP_POINT,
    HOOK_SWEEP_START,
    SweepMetrics,
    SweepOutcome,
    SweepPointError,
    SweepRunner,
)
from repro.service.spec import SweepSpec
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A40")).trace(get_model("resnet18"), 16)


def _grid():
    return [
        SimulationConfig(parallelism="ddp", num_gpus=n, link_bandwidth=bw)
        for n in (2, 4) for bw in (25e9, 100e9)
    ]


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_two_workers_bit_identical_to_sequential(self, trace):
        configs = _grid()
        sequential = [
            TrioSim(trace, cfg, record_timeline=False).run().total_time
            for cfg in configs
        ]
        outcomes = SweepRunner(max_workers=2).run(trace, configs)
        assert [o.unwrap().total_time for o in outcomes] == sequential

    def test_inproc_bit_identical_to_sequential(self, trace):
        configs = _grid()
        sequential = [
            TrioSim(trace, cfg, record_timeline=False).run().total_time
            for cfg in configs
        ]
        outcomes = SweepRunner(max_workers=1).run(trace, configs)
        assert [o.unwrap().total_time for o in outcomes] == sequential

    def test_chunked_dispatch_bit_identical_to_sequential(
            self, trace, monkeypatch):
        # Chunked point submission (several points per pool future)
        # must not change results, order, or labels relative to the
        # one-point-per-future path.
        configs = _grid()
        sequential = [
            TrioSim(trace, cfg, record_timeline=False).run().total_time
            for cfg in configs
        ]
        for chunk in (2, 3):
            monkeypatch.setattr(SweepRunner, "_chunk_size",
                                lambda self, n, workers: chunk)
            outcomes = SweepRunner(max_workers=2).run(trace, configs)
            assert [o.unwrap().total_time for o in outcomes] == sequential
            assert [o.index for o in outcomes] == list(range(len(configs)))

    def test_auto_chunk_size_scales_with_sweep(self):
        runner = SweepRunner(max_workers=2)
        # Small sweeps stay at one point per future (latency, and the
        # run_point seam tests monkeypatch); big sweeps batch, capped.
        assert runner._chunk_size(4, workers=2) == 1
        assert runner._chunk_size(40, workers=2) == 5
        assert runner._chunk_size(1000, workers=2) == 8

    def test_outcomes_preserve_input_order_and_labels(self, trace):
        configs = _grid()
        labels = [f"p{i}" for i in range(len(configs))]
        outcomes = SweepRunner(max_workers=1).run(trace, configs,
                                                  labels=labels)
        assert [o.index for o in outcomes] == list(range(len(configs)))
        assert [o.label for o in outcomes] == labels
        assert [o.config for o in outcomes] == configs


# ----------------------------------------------------------------------
# The prepared-trace table handed to pool workers
# ----------------------------------------------------------------------

#: Host-timing fields: not simulation state, so not compared.
HOST_FIELDS = ("wall_time", "profile")


def _comparable(result):
    return {k: v for k, v in result.to_dict().items() if k not in HOST_FIELDS}


def _two_gpu_grid():
    """Points on the trace's own GPU (A40) and on a rescaled H100."""
    return [
        SimulationConfig(parallelism="ddp", num_gpus=n, gpu=gpu)
        for n in (2, 4) for gpu in (None, "H100")
    ]


class _InlinePool:
    """A pool stand-in that starts no process: its "workers" receive the
    trace table after the pickle round trip the ``spawn`` and
    ``forkserver`` start methods give initargs, then run each
    submission at once in this process."""

    def __init__(self, traces, plan_mode):
        self.loaded = pickle.loads(pickle.dumps(traces))
        worker_mod.init_worker(self.loaded, plan_mode)

    def submit(self, fn, payload):
        future = Future()
        future.set_result(fn(payload))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


class TestTraceTable:
    def test_two_target_gpus_bit_identical_to_sequential(
            self, trace, monkeypatch):
        tables = []
        real_pool = SweepRunner._new_pool

        def spy(self, workers, traces):
            tables.append(dict(traces))
            return real_pool(self, workers, traces)

        monkeypatch.setattr(SweepRunner, "_new_pool", spy)
        configs = _two_gpu_grid()
        outcomes = SweepRunner(max_workers=2).run(trace, configs)
        assert [sorted(t) for t in tables] == [["A40", "H100"]]
        assert tables[0]["A40"] is trace
        assert [_comparable(o.unwrap()) for o in outcomes] == [
            _comparable(TrioSim(trace, cfg, record_timeline=False).run())
            for cfg in configs
        ]

    def test_table_survives_pickled_initargs(self, trace, monkeypatch):
        # Python 3.14 starts Linux pool workers with forkserver, which
        # pickles initargs; fork (the default before) hands them over
        # as they are.
        monkeypatch.setattr(worker_mod, "_TRACES", {})
        monkeypatch.setattr(worker_mod, "_PLAN_CACHE", None)
        pools = []

        def inline(self, workers, traces):
            pools.append((traces, _InlinePool(traces, "")))
            return pools[-1][1]

        monkeypatch.setattr(SweepRunner, "_new_pool", inline)
        configs = _two_gpu_grid()
        outcomes = SweepRunner(max_workers=2).run(trace, configs)

        (sent, pool), = pools
        assert sorted(pool.loaded) == sorted(sent) == ["A40", "H100"]
        for key, loaded in pool.loaded.items():
            assert loaded is not sent[key]
            # Re-derive the digest from content, not the memo the
            # pickle carried along.
            vars(loaded).pop("_digest_memo", None)
            assert trace_digest(loaded) == trace_digest(sent[key])
        assert [_comparable(o.unwrap()) for o in outcomes] == [
            _comparable(TrioSim(trace, cfg, record_timeline=False).run())
            for cfg in configs
        ]


# ----------------------------------------------------------------------
# Caching
# ----------------------------------------------------------------------


class TestCache:
    def test_second_run_all_cached_zero_engine_events(self, trace, tmp_path):
        configs = _grid()
        runner = SweepRunner(max_workers=1, cache=tmp_path / "cache")
        first = [o.unwrap().total_time for o in runner.run(trace, configs)]
        assert runner.last_metrics.cache_hits == 0
        assert runner.last_metrics.fresh_events > 0

        second_runner = SweepRunner(max_workers=1, cache=tmp_path / "cache")
        outcomes = second_runner.run(trace, configs)
        metrics = second_runner.last_metrics
        assert all(o.cached for o in outcomes)
        assert metrics.cache_hits == len(configs)
        assert metrics.hit_rate == 1.0
        # The acceptance bar: replay dispatches zero engine events.
        assert metrics.fresh_events == 0
        assert [o.unwrap().total_time for o in outcomes] == first

    def test_cache_key_distinguishes_timeline(self, trace, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cfg = SimulationConfig(num_gpus=2)
        key = trace_digest(trace)
        assert cache.point_key(key, cfg, False) != cache.point_key(key, cfg,
                                                                   True)

    def test_corrupt_entry_treated_as_miss(self, trace, tmp_path):
        root = tmp_path / "cache"
        runner = SweepRunner(max_workers=1, cache=root)
        cfg = SimulationConfig(num_gpus=2)
        runner.run(trace, [cfg])
        (entry,) = [p for p in root.iterdir() if p.suffix == ".json"]
        entry.write_text("{not json")
        outcomes = SweepRunner(max_workers=1, cache=root).run(trace, [cfg])
        assert not outcomes[0].cached
        assert outcomes[0].ok

    def test_factory_configs_never_cached(self, trace, tmp_path):
        def factory(engine, config):
            return FlowNetwork(engine, build_topology(
                "ring", config.num_gpus, config.link_bandwidth,
                config.link_latency))

        cfg = SimulationConfig(num_gpus=2, network_factory=factory)
        root = tmp_path / "cache"
        runner = SweepRunner(max_workers=2, cache=root)
        outcome = runner.run(trace, [cfg])[0]
        assert outcome.ok and not outcome.cached
        assert len(ResultCache(root)) == 0
        # The factory run matches the equivalent default-network config.
        plain = TrioSim(trace, SimulationConfig(num_gpus=2)).run()
        assert outcome.unwrap().total_time == plain.total_time


# ----------------------------------------------------------------------
# Graceful degradation
# ----------------------------------------------------------------------


class TestErrors:
    def test_failing_point_degrades_to_error_record(self, trace):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=25e9, latency=2e-6)
        bad = SimulationConfig(topology=g, num_gpus=4)   # graph lacks gpu2/3
        good = SimulationConfig(num_gpus=2)
        outcomes = SweepRunner(max_workers=1).run(trace, [good, bad, good])
        assert outcomes[0].ok and outcomes[2].ok
        failed = outcomes[1]
        assert not failed.ok
        assert failed.error is not None
        assert failed.error.kind
        assert failed.error.traceback
        with pytest.raises(SweepPointError):
            failed.unwrap()

    def test_failing_point_in_worker_process(self, trace):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=25e9, latency=2e-6)
        bad = SimulationConfig(topology=g, num_gpus=4)
        good = SimulationConfig(num_gpus=2)
        outcomes = SweepRunner(max_workers=2).run(trace, [good, bad])
        assert outcomes[0].ok
        assert not outcomes[1].ok
        assert outcomes[1].error.traceback   # worker shipped its traceback

    def test_timeout_becomes_error_record(self, trace, monkeypatch):
        class SlowSim:
            def __init__(self, *args, **kwargs):
                pass

            def run(self):
                import time
                time.sleep(5.0)

        monkeypatch.setattr(worker_mod, "TrioSim", SlowSim)
        runner = SweepRunner(max_workers=1, deadline_hard=0.2)
        outcome = runner.run(trace, [SimulationConfig(num_gpus=2)])[0]
        assert not outcome.ok
        assert outcome.error.kind == "PointTimeout"

    def test_error_record_serializes(self, trace):
        g = nx.Graph()
        g.add_edge("gpu0", "gpu1", bandwidth=25e9, latency=2e-6)
        bad = SimulationConfig(topology=g, num_gpus=4)
        outcome = SweepRunner(max_workers=1).run(trace, [bad])[0]
        data = outcome.to_dict()
        assert data["error"]["kind"] == outcome.error.kind
        assert data["result"] is None


# ----------------------------------------------------------------------
# Shared-work dedup
# ----------------------------------------------------------------------


class TestSharedWork:
    """Sweeps and direct runs share one per-process prepared-input memo
    (:func:`repro.extrapolator.optime.prepare`)."""

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_prepared()
        yield
        clear_prepared()

    def test_cross_gpu_rescale_once_per_target(self, trace, monkeypatch):
        calls = []
        original = CrossGPUScaler.convert_trace

        def counting(self, t):
            calls.append(t)
            return original(self, t)

        monkeypatch.setattr(CrossGPUScaler, "convert_trace", counting)
        runner = SweepRunner(max_workers=1)
        configs = [
            SimulationConfig(num_gpus=n, gpu="H100") for n in (1, 2, 4)
        ]
        runner.run(trace, configs)
        assert len(calls) == 1
        # The memo spans run() calls (the experiments harness pattern),
        # runners, and direct TrioSim runs.
        runner.run(trace, [SimulationConfig(num_gpus=8, gpu="H100")])
        SweepRunner(max_workers=1).run(
            trace, [SimulationConfig(num_gpus=2, gpu="H100")])
        TrioSim(trace, SimulationConfig(num_gpus=2, gpu="H100")).run()
        assert len(calls) == 1

    def test_shared_memo_bounded(self, trace, monkeypatch):
        monkeypatch.setattr(optime, "PREPARED_LIMIT", 2)
        runner = SweepRunner(max_workers=1)
        for gpu in ("A40", "A100", "H100"):
            outcome = runner.run(trace, [SimulationConfig(num_gpus=2,
                                                          gpu=gpu)])[0]
            assert outcome.ok
        # Each of A100 and H100 adds a rescaled trace and a model.
        assert len(optime._PREPARED) == 2
        assert clear_prepared() == 2


# ----------------------------------------------------------------------
# Progress hooks
# ----------------------------------------------------------------------


class _Collector:
    def __init__(self):
        self.ctxs = []

    def func(self, ctx):
        self.ctxs.append(ctx)


class TestProgressHooks:
    def test_positions_and_counters(self, trace):
        hook = _Collector()
        configs = _grid()
        SweepRunner(max_workers=1, hooks=[hook]).run(trace, configs)
        positions = [c.pos for c in hook.ctxs]
        assert positions[0] == HOOK_SWEEP_START
        assert positions[-1] == HOOK_SWEEP_END
        points = [c for c in hook.ctxs if c.pos == HOOK_SWEEP_POINT]
        assert len(points) == len(configs)
        assert [c.detail["completed"] for c in points] == \
            list(range(1, len(configs) + 1))
        assert all(c.detail["total"] == len(configs) for c in points)
        assert all(isinstance(c.item, SweepOutcome) for c in points)
        end = hook.ctxs[-1]
        assert end.detail["completed"] == len(configs)
        assert end.detail["errors"] == 0
        assert end.detail["events_per_sec"] >= 0.0


# ----------------------------------------------------------------------
# Metrics serialization
# ----------------------------------------------------------------------


class TestMetricsSerialization:
    def test_detail_is_strict_json_before_first_completion(self):
        # Regression: eta_seconds and the rate fields used to serialize
        # as bare NaN before any point completed, which json.loads (and
        # every downstream consumer of --progress output) rejects.
        detail = SweepMetrics(total=4).detail()
        assert detail["eta_seconds"] is None
        text = json.dumps(detail, allow_nan=False)   # raises on NaN/inf
        assert json.loads(text)["eta_seconds"] is None

    def test_eta_appears_once_points_complete(self):
        metrics = SweepMetrics(total=4)
        metrics.completed = 2
        metrics.elapsed = 10.0
        detail = metrics.detail()
        assert detail["eta_seconds"] == pytest.approx(10.0)
        json.dumps(detail, allow_nan=False)

    def test_nonfinite_values_serialize_as_null(self):
        metrics = SweepMetrics(total=1)
        metrics.completed = 1
        metrics.elapsed = 0.0          # infinite events/sec if unguarded
        metrics.fresh_events = 100
        json.dumps(metrics.detail(), allow_nan=False)

    def test_end_hook_detail_round_trips_through_json(self, trace):
        collected = _Collector()
        SweepRunner(max_workers=1, hooks=[collected]).run(
            trace, [SimulationConfig(num_gpus=2)])
        for ctx in collected.ctxs:
            json.loads(json.dumps(ctx.detail, allow_nan=False))


# ----------------------------------------------------------------------
# Sweep specs
# ----------------------------------------------------------------------


class TestSweepSpec:
    def test_cross_product_order(self):
        spec = SweepSpec(
            model="resnet18",
            base={"parallelism": "ddp"},
            axes={"num_gpus": [2, 4], "link_bandwidth": [25e9, 100e9]},
        )
        points = spec.expand()
        assert spec.num_points == len(points) == 4
        assert [label for label, _ in points] == [
            "num_gpus=2,link_bandwidth=25000000000.0",
            "num_gpus=2,link_bandwidth=100000000000.0",
            "num_gpus=4,link_bandwidth=25000000000.0",
            "num_gpus=4,link_bandwidth=100000000000.0",
        ]
        assert points[0][1].num_gpus == 2
        assert points[-1][1].link_bandwidth == 100e9

    def test_needs_exactly_one_trace_source(self):
        with pytest.raises(ValueError, match="trace source"):
            SweepSpec(base={}, axes={})
        with pytest.raises(ValueError, match="trace source"):
            SweepSpec(trace_path="t.json", model="resnet18")

    def test_bad_axis_values_fail_early(self):
        with pytest.raises(ValueError):
            SweepSpec(model="resnet18", axes={"num_gpus": []})
        with pytest.raises(ValueError):
            SweepSpec(model="resnet18", axes={"num_gpu": [2]})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep spec keys"):
            SweepSpec.from_dict({"model": "resnet18", "axis": {}})

    def test_load_trace_resolves_relative_paths(self, trace, tmp_path):
        trace.save(tmp_path / "t.json")
        spec = SweepSpec.from_dict({"trace": "t.json"})
        loaded = spec.load_trace(tmp_path)
        assert loaded.model_name == trace.model_name
        assert trace_digest(loaded) == trace_digest(trace)
