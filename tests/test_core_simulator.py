"""End-to-end tests for the TrioSim facade."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.gpus.specs import get_gpu
from repro.trace.tracer import Tracer
from repro.workloads import get_model


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 64)


def _run(trace, **cfg):
    return TrioSim(trace, SimulationConfig(**cfg)).run()


class TestSingleGPU:
    def test_replay_matches_trace_exactly(self, trace):
        """Same batch as the trace: replay uses trace times verbatim."""
        res = _run(trace, parallelism="single")
        assert res.total_time == pytest.approx(trace.total_duration, rel=1e-9)
        assert res.communication_time == 0.0

    def test_batch_scaling_grows_time(self, trace):
        base = _run(trace, parallelism="single").total_time
        double = _run(trace, parallelism="single", batch_size=128).total_time
        assert 1.6 * base < double < 2.4 * base

    def test_per_phase_breakdown(self, trace):
        res = _run(trace, parallelism="single")
        assert set(res.per_phase) == {"forward", "backward", "optimizer"}
        assert res.per_phase["backward"] > res.per_phase["forward"]

    def test_per_layer_breakdown_covers_layers(self, trace):
        res = _run(trace, parallelism="single")
        assert len(res.per_layer) == len(get_model("resnet18").layers)


class TestDDP:
    def test_runs_and_overlaps(self, trace):
        res = _run(trace, parallelism="ddp", num_gpus=2,
                   link_bandwidth=20e9)
        # Total < serial compute + serial comm (overlap happened).
        assert res.total_time < trace.total_duration + res.communication_time
        assert res.communication_time > 0

    def test_overlap_beats_no_overlap(self, trace):
        on = _run(trace, parallelism="ddp", num_gpus=2,
                  link_bandwidth=5e9, overlap=True).total_time
        off = _run(trace, parallelism="ddp", num_gpus=2,
                   link_bandwidth=5e9, overlap=False).total_time
        assert on < off

    def test_slower_link_costs_more(self, trace):
        fast = _run(trace, parallelism="ddp", num_gpus=2,
                    link_bandwidth=200e9).total_time
        slow = _run(trace, parallelism="ddp", num_gpus=2,
                    link_bandwidth=2e9).total_time
        assert slow > fast

    def test_per_gpu_busy_symmetric(self, trace):
        res = _run(trace, parallelism="ddp", num_gpus=4)
        busys = list(res.per_gpu_busy.values())
        assert len(busys) == 4
        assert max(busys) == pytest.approx(min(busys), rel=1e-6)


class TestDP:
    def test_dp_slower_than_ddp(self, trace):
        dp = _run(trace, parallelism="dp", num_gpus=2,
                  link_bandwidth=20e9).total_time
        ddp = _run(trace, parallelism="ddp", num_gpus=2,
                   link_bandwidth=20e9).total_time
        assert dp > ddp


class TestTP:
    def test_tp_comm_ratio_higher_than_ddp(self, trace):
        tp = _run(trace, parallelism="tp", num_gpus=2, link_bandwidth=20e9)
        ddp = _run(trace, parallelism="ddp", num_gpus=2, link_bandwidth=20e9)
        assert tp.communication_ratio > ddp.communication_ratio

    def test_tp_shards_reduce_compute(self, trace):
        tp = _run(trace, parallelism="tp", num_gpus=4, link_bandwidth=200e9)
        single = trace.total_duration
        # Per-GPU busy time shrinks relative to single-GPU replay.
        assert max(tp.per_gpu_busy.values()) < single


class TestPP:
    def test_chunks_reduce_time(self, trace):
        c1 = _run(trace, parallelism="pp", num_gpus=2, chunks=1,
                  link_bandwidth=200e9).total_time
        c4 = _run(trace, parallelism="pp", num_gpus=2, chunks=4,
                  link_bandwidth=200e9).total_time
        assert c4 < c1

    def test_one_chunk_close_to_serial(self, trace):
        """A single micro-batch has no pipelining: roughly the single-GPU
        time plus transfers."""
        c1 = _run(trace, parallelism="pp", num_gpus=2, chunks=1,
                  link_bandwidth=200e9).total_time
        assert c1 == pytest.approx(trace.total_duration, rel=0.15)

    def test_stage_gpu_busy_split(self, trace):
        res = _run(trace, parallelism="pp", num_gpus=2, chunks=2,
                   link_bandwidth=200e9)
        assert len(res.per_gpu_busy) == 2


class TestCrossGPU:
    def test_target_gpu_rescales(self, trace):
        a100 = _run(trace, parallelism="single").total_time
        h100 = TrioSim(trace, SimulationConfig(parallelism="single",
                                               gpu="H100")).run().total_time
        assert h100 < a100

    def test_same_gpu_is_noop(self, trace):
        res = TrioSim(trace, SimulationConfig(parallelism="single",
                                              gpu="a100")).run()
        assert res.total_time == pytest.approx(trace.total_duration, rel=1e-9)


class TestResultMetadata:
    def test_wall_time_and_events_recorded(self, trace):
        res = _run(trace, parallelism="ddp", num_gpus=2)
        assert res.wall_time > 0
        assert res.events > 100

    def test_timeline_optional(self, trace):
        res = TrioSim(trace, SimulationConfig(parallelism="single"),
                      record_timeline=False).run()
        assert res.timeline == []
        assert res.per_layer == {}

    def test_timeline_records_sorted_fields(self, trace):
        res = _run(trace, parallelism="ddp", num_gpus=2)
        compute = [r for r in res.timeline if r.kind == "compute"]
        transfers = [r for r in res.timeline if r.kind == "transfer"]
        assert compute and transfers
        assert all(r.end >= r.start for r in res.timeline)

    def test_summary_readable(self, trace):
        res = _run(trace, parallelism="single")
        text = res.summary()
        assert "total" in text and "comm" in text


class TestFinishedRunIsFreed:
    """A finished run holds no reference cycle: with the cyclic collector
    off, reference counting alone frees the run's engine, network and
    task-graph simulator once ``run()`` returns."""

    @pytest.mark.parametrize("faulted", [False, True],
                             ids=["clean", "faulted"])
    def test_engine_network_and_simulator_die_with_gc_disabled(
            self, trace, faulted, monkeypatch):
        import gc
        import weakref

        import repro.core.simulator as simulator_module
        from repro.faults import (DeviceFailure, FaultSpec, LinkFault,
                                  Straggler)

        refs = {}

        def tracked(cls):
            class Tracked(cls):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    refs[cls.__name__] = weakref.ref(self)
            return Tracked

        for name in ("Engine", "FlowNetwork", "TaskGraphSimulator"):
            monkeypatch.setattr(simulator_module, name,
                                tracked(getattr(simulator_module, name)))
        faults = FaultSpec(
            stragglers=(Straggler("gpu1", 0.0, 0.002, 2.0),),
            link_faults=(LinkFault("gpu0-leaf0", 0.0, 0.002, 0.5),),
            failures=(DeviceFailure("gpu2", 0.003),),
            checkpoint_interval=0.002, checkpoint_cost=1e-4,
            restore_cost=1e-4) if faulted else None
        config = SimulationConfig(parallelism="ddp", num_gpus=16,
                                  topology="leaf_spine", routing="adaptive",
                                  faults=faults)
        gc.collect()
        gc.disable()
        try:
            result = TrioSim(trace, config).run()
            alive = sorted(name for name, ref in refs.items()
                           if ref() is not None)
        finally:
            gc.enable()
        assert result.total_time > 0
        assert sorted(refs) == ["Engine", "FlowNetwork",
                                "TaskGraphSimulator"]
        assert alive == []


def test_transfers_complete_through_one_shared_callback(trace, monkeypatch):
    """Every transfer is delivered through the simulator's one delivery
    method, with its row id as the tag: no closure per transfer."""
    from repro.core.taskgraph import TRANSFER
    from repro.network.flow import FlowNetwork

    sent = []
    send = FlowNetwork.send

    def spy(self, src, dst, nbytes, callback, tag=None, pending=None):
        sent.append((src, dst, callback, tag))
        return send(self, src, dst, nbytes, callback, tag, pending)

    monkeypatch.setattr(FlowNetwork, "send", spy)
    _run(trace, parallelism="ddp", num_gpus=4, topology="leaf_spine",
         iterations=2)
    callbacks = {callback for _, _, callback, _ in sent}
    assert len(callbacks) == 1
    store = next(iter(callbacks)).__self__.store
    transfers = [tid for tid, kind in enumerate(store.kind)
                 if kind == TRANSFER]
    assert sorted(tag for *_, tag in sent) == transfers
    assert all((store.src[tag], store.dst[tag]) == (src, dst)
               for src, dst, _, tag in sent)
