"""Tests for the synthetic tracer."""

import hashlib

import pytest

from repro.analysis import lint_trace
from repro.gpus.specs import get_gpu
from repro.trace.tracer import Tracer
from repro.workloads import get_model


@pytest.fixture(scope="module")
def resnet_trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 32)


class TestStructure:
    def test_metadata(self, resnet_trace):
        assert resnet_trace.model_name == "resnet18"
        assert resnet_trace.gpu_name == "A100"
        assert resnet_trace.batch_size == 32

    def test_one_fwd_and_bwd_op_per_layer(self, resnet_trace):
        model = get_model("resnet18")
        assert len(resnet_trace.forward_ops) == len(model.layers)
        assert len(resnet_trace.backward_ops) == len(model.layers)

    def test_one_optimizer_op_per_param_layer(self, resnet_trace):
        model = get_model("resnet18")
        param_layers = sum(1 for l in model.layers if l.params > 0)
        assert len(resnet_trace.optimizer_ops) == param_layers

    def test_gradient_bytes_match_params(self, resnet_trace):
        model = get_model("resnet18")
        assert resnet_trace.gradient_bytes == model.total_param_bytes

    def test_backward_in_reverse_layer_order(self, resnet_trace):
        fwd_layers = [op.layer for op in resnet_trace.forward_ops]
        bwd_layers = [op.layer for op in resnet_trace.backward_ops]
        assert bwd_layers == fwd_layers[::-1]

    def test_durations_positive(self, resnet_trace):
        assert all(op.duration > 0 for op in resnet_trace.operators)

    def test_activation_dims_carry_batch(self, resnet_trace):
        first_input = resnet_trace.tensors[resnet_trace.forward_ops[0].inputs[0]]
        assert first_input.dims[0] == 32
        assert first_input.category == "input"

    def test_dependency_graph_well_formed(self, resnet_trace):
        # The trace rules include TR008 (dataflow-cycle).
        assert not lint_trace(resnet_trace).has_errors


class TestDeterminismAndKnobs:
    def test_same_seed_same_trace(self):
        a = Tracer(get_gpu("A40"), seed=5).trace(get_model("vgg11"), 16)
        b = Tracer(get_gpu("A40"), seed=5).trace(get_model("vgg11"), 16)
        assert [op.duration for op in a.operators] == \
            [op.duration for op in b.operators]

    def test_different_seed_different_times(self):
        a = Tracer(get_gpu("A40"), seed=1).trace(get_model("vgg11"), 16)
        b = Tracer(get_gpu("A40"), seed=2).trace(get_model("vgg11"), 16)
        assert [op.duration for op in a.operators] != \
            [op.duration for op in b.operators]

    def test_profiler_overhead_inflates(self):
        plain = Tracer(get_gpu("A100"), noise_sigma=0.0,
                       profiler_overhead=False).trace(get_model("vgg11"), 16)
        profiled = Tracer(get_gpu("A100"), noise_sigma=0.0,
                          profiler_overhead=True).trace(get_model("vgg11"), 16)
        assert profiled.total_duration > plain.total_duration
        # A couple of percent, not an order of magnitude.
        assert profiled.total_duration < 1.10 * plain.total_duration

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError):
            Tracer(get_gpu("A100")).trace(get_model("vgg11"), 0)

    def test_bigger_batch_longer_trace(self):
        tracer = Tracer(get_gpu("A100"), noise_sigma=0.0)
        t32 = tracer.trace(get_model("resnet18"), 32)
        t64 = tracer.trace(get_model("resnet18"), 64)
        assert t64.total_duration > 1.5 * t32.total_duration


#: ``float.hex`` digests of every operator duration, recorded when each
#: operator still drew its per-(GPU, class) factors afresh: memoizing
#: those draws must not move a duration by one ulp (``test_golden.py``
#: checks traces only to ``rel=1e-3``).
OP_DURATION_DIGESTS = {
    ("resnet50", "A100", 64): "ee486a75417f454d",
    ("gpt2", "H100", 8): "34a3fd2a8bf6f260",
    ("vgg16", "A40", 16): "56cf8d274124924f",
}


@pytest.mark.parametrize("case", sorted(OP_DURATION_DIGESTS),
                         ids=lambda case: "-".join(map(str, case)))
def test_op_durations_pinned(case):
    model, gpu, batch = case
    trace = Tracer(get_gpu(gpu)).trace(get_model(model), batch)
    digest = hashlib.sha256()
    for op in trace.operators:
        digest.update(f"{op.name}|{op.duration.hex()}\n".encode())
    assert digest.hexdigest()[:16] == OP_DURATION_DIGESTS[case]
