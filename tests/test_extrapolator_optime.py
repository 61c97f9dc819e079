"""Tests for the operator-time resolver (OpTimeModel)."""

import pytest

from repro.core.config import SimulationConfig
from repro.core.plan import PlanBuilder
from repro.core.simulator import TrioSim
from repro.analysis.verifier import verify_spec
from repro.extrapolator.optime import (
    OpTimeModel,
    build_op_time,
    clear_prepared,
    prepare,
    rescale,
)
from repro.extrapolator.tensor_parallel import TensorParallelExtrapolator
from repro.gpus.specs import get_gpu
from repro.perfmodel.li_model import LiModel
from repro.perfmodel.piecewise import PiecewiseThroughputModel
from repro.perfmodel.scaling import CrossGPUScaler
from repro.trace.records import OperatorRecord, TensorRecord
from repro.trace.trace import Trace
from repro.trace.tracer import Tracer
from repro.workloads import get_model


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100"), noise_sigma=0.0).trace(get_model("resnet18"), 64)


@pytest.fixture(scope="module")
def op_time(trace):
    return OpTimeModel(trace)


class TestVerbatimRule:
    def test_identity_returns_trace_time(self, trace, op_time):
        for op in trace.operators[:10]:
            assert op_time.duration(op) == op.duration

    def test_shard_on_unshardable_is_identity(self, trace, op_time):
        norm_op = next(op for op in trace.operators if op.kind == "norm")
        assert op_time.duration(norm_op, shard=4) == norm_op.duration


class TestBatchScaling:
    def test_double_batch_roughly_doubles(self, trace, op_time):
        conv = max(trace.forward_ops, key=lambda o: o.flops)
        scaled = op_time.duration(conv, batch_scale=2.0)
        assert 1.7 * conv.duration < scaled < 2.3 * conv.duration

    def test_optimizer_ops_ignore_batch(self, trace, op_time):
        opt = trace.optimizer_ops[0]
        assert op_time.duration(opt, batch_scale=4.0) == opt.duration

    def test_invalid_scale_rejected(self, trace, op_time):
        with pytest.raises(ValueError):
            op_time.duration(trace.operators[0], batch_scale=0.0)

    def test_invalid_shard_rejected(self, trace, op_time):
        with pytest.raises(ValueError):
            op_time.duration(trace.operators[0], shard=0)


class TestSharding:
    def test_shard_reduces_time(self, trace, op_time):
        conv = max(trace.forward_ops, key=lambda o: o.flops)
        assert op_time.duration(conv, shard=2) < conv.duration

    def test_shardable_kinds(self, trace, op_time):
        kinds = {op.kind: op_time.shardable(op) for op in trace.operators}
        assert kinds["conv"] and kinds["linear"]
        assert not kinds["norm"] and not kinds["pool"]


class TestByteQueries:
    def test_output_act_bytes_scale(self, trace, op_time):
        op = trace.forward_ops[0]
        assert op_time.output_act_bytes(op, 2.0) == \
            2 * op_time.output_act_bytes(op, 1.0)

    def test_gradient_bytes_only_on_param_bwd_ops(self, trace, op_time):
        total = sum(op_time.gradient_bytes(op) for op in trace.backward_ops)
        assert total == trace.gradient_bytes
        fwd_total = sum(op_time.gradient_bytes(op) for op in trace.forward_ops)
        assert fwd_total == 0

    def test_lazy_li_model(self, trace):
        model = OpTimeModel(trace)
        assert model._model is None
        model.duration(trace.operators[0], batch_scale=2.0)
        assert model._model is not None


class TestScaledDurationMemo:
    """Memoized scaled durations are bit-identical to cold resolutions."""

    SCALES = (0.25, 0.5, 2.0)
    SHARDS = (1, 2, 4)

    @pytest.fixture(scope="class", params=["li", "piecewise"])
    def fitted(self, request, trace):
        if request.param == "li":
            return LiModel.fit(trace)
        return PiecewiseThroughputModel.fit(trace)

    def test_memoized_equals_cold(self, trace, fitted):
        warm = OpTimeModel(trace, fitted)
        for op in trace.operators:
            for scale in self.SCALES:
                for shard in self.SHARDS:
                    first = warm.duration(op, scale, shard)
                    cold = OpTimeModel(trace, fitted).duration(op, scale, shard)
                    assert first.hex() == cold.hex(), (op.name, scale, shard)
                    again = warm.duration(op, scale, shard)
                    assert again.hex() == first.hex(), (op.name, scale, shard)

    def test_megatron_element_wise_path_has_its_own_key(self):
        trace = Tracer(get_gpu("A100"), noise_sigma=0.0).trace(
            get_model("gpt2"), 4)
        op_time = OpTimeModel(trace)
        ex = TensorParallelExtrapolator(trace, op_time, 4, scheme="megatron")
        ex.build(PlanBuilder())
        element_wise = [
            op for op in trace.operators
            if op.phase != "optimizer"
            and ex._shardable(op) and not op_time.shardable(op)
        ]
        assert element_wise
        cold_model = OpTimeModel(trace, op_time.li_model)
        for op in element_wise:
            memoized = op_time._scaled[(op.name, 0.25, 1)][1]
            cold = cold_model.duration(op, 0.25, 1)
            assert memoized.hex() == cold.hex(), op.name
            assert (op.name, 1.0, 4) not in op_time._scaled

    def test_duplicate_op_names_do_not_share_an_entry(self):
        trace = Trace("toy", "A100", 1)
        trace.add_tensor(TensorRecord(0, (1, 64)))
        trace.add_tensor(TensorRecord(1, (1, 64)))
        trace.add_tensor(TensorRecord(2, (64, 64), category="weight"))
        small = trace.add_operator(OperatorRecord(
            "dup", "linear", "a", "forward", 1e-4, 1e6,
            inputs=(0, 2), outputs=(1,)))
        large = trace.add_operator(OperatorRecord(
            "dup", "linear", "b", "forward", 4e-4, 8e6,
            inputs=(1, 2), outputs=(0,)))
        warm = OpTimeModel(trace)
        for op in (small, large, small):
            cold = OpTimeModel(trace, warm.li_model).duration(op, 2.0)
            assert warm.duration(op, 2.0).hex() == cold.hex()
        assert warm.duration(small, 2.0) != warm.duration(large, 2.0)

    @pytest.mark.parametrize("perf_model", ["li", "piecewise"])
    def test_shared_model_across_batch_sizes_matches_fresh(self, trace,
                                                           perf_model):
        clear_prepared()
        models = []
        for fields in [dict(parallelism="pp", num_gpus=2, chunks=2),
                       dict(parallelism="pp", num_gpus=2, chunks=2,
                            batch_size=32),
                       dict(parallelism="tp", num_gpus=2, batch_size=128),
                       dict(parallelism="pp", num_gpus=2, chunks=4,
                            batch_size=128),
                       dict(parallelism="tp", num_gpus=4, batch_size=32)]:
            config = SimulationConfig(perf_model=perf_model, **fields)
            sim = TrioSim(trace, config, record_timeline=False)
            models.append(sim.op_time)
            reused = sim.build_plan()
            sim.op_time = build_op_time(trace, perf_model)
            fresh = sim.build_plan()
            assert [d.hex() for d in reused.columns["duration"]] == \
                [d.hex() for d in fresh.columns["duration"]], fields
        assert all(model is models[0] for model in models)


class TestPreparedMemo:
    """``prepare`` rescales and fits once per process, whoever asks."""

    @pytest.fixture(autouse=True)
    def cold(self):
        clear_prepared()
        yield
        clear_prepared()

    @pytest.fixture
    def fits(self, monkeypatch):
        calls = []
        original = LiModel.fit.__func__

        def counting(cls, trace):
            calls.append(trace)
            return original(cls, trace)

        monkeypatch.setattr(LiModel, "fit", classmethod(counting))
        return calls

    def test_one_li_fit_across_direct_runs(self, trace, fits):
        totals = [
            TrioSim(trace, SimulationConfig(parallelism="ddp", num_gpus=2,
                                            batch_size=batch),
                    record_timeline=False).run().total_time
            for batch in (32, 128, 256)
        ]
        assert len(fits) == 1
        assert len(set(totals)) == 3

    def test_one_fit_for_verify_spec_batch_axis(self, fits):
        spec = {"model": "resnet18", "batch": 16,
                "base": {"parallelism": "ddp", "num_gpus": 2},
                "axes": {"batch_size": [8, 32, 64]}}
        assert verify_spec(spec).ok
        assert len(fits) == 1

    def test_equal_traces_share_one_model(self, trace):
        copy = Trace.from_dict(trace.to_dict())
        assert prepare(copy, None)[1] is prepare(trace, None)[1]
        assert prepare(trace, None, "piecewise")[1] is not \
            prepare(trace, None)[1]

    def test_prepared_trace_is_not_rescaled_again(self, trace, monkeypatch):
        prepared = rescale(trace, "H100")
        assert prepared.gpu_name == "H100"
        calls = []
        monkeypatch.setattr(CrossGPUScaler, "convert_trace",
                            lambda self, t: calls.append(t))
        assert rescale(prepared, "h100") is prepared
        sim = TrioSim(prepared, SimulationConfig(num_gpus=2, gpu="H100"))
        assert sim.trace is prepared
        assert calls == []
