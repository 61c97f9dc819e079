"""Weight placement of the pipeline and hybrid extrapolators.

The pipeline places each stage's weights by walking its forward ops'
inputs.  These tests hold the resulting :class:`TensorStore` to a
full-table-scan oracle (every tensor of the table checked against every
forward op, the original formulation) and check that hybrid replicas put
each stage's weights on that stage's GPU.
"""

import pytest

from repro.core.plan import PlanBuilder
from repro.extrapolator.hybrid import HybridExtrapolator
from repro.extrapolator.optime import OpTimeModel
from repro.extrapolator.pipeline import PipelineExtrapolator
from repro.gpus.specs import get_gpu
from repro.memory.tensor_store import TensorStore
from repro.trace.records import OperatorRecord, TensorRecord
from repro.trace.trace import Trace
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model


@pytest.fixture(scope="module")
def traces():
    tracer = Tracer(get_gpu("A100"))
    return {
        "resnet50": tracer.trace(get_model("resnet50"), 8),
        "gpt2": tracer.trace(get_model("gpt2"), 4),
    }


def snapshot(store: TensorStore):
    """Everything the store holds, in insertion order."""
    return {
        "locations": list(store._locations.items()),
        "home": list(store._home.items()),
        "sizes": list(store._sizes.items()),
        "used": list(store._used.items()),
    }


def oracle_place(trace, stages, gpus, store: TensorStore) -> None:
    """Scan the whole tensor table for each forward op's weights."""
    for s, stage_ops in enumerate(stages):
        for op in stage_ops:
            for tensor in trace.tensors.values():
                if tensor.tensor_id in op.inputs and tensor.category == "weight":
                    store.place(tensor.tensor_id, gpus[s], tensor.nbytes)


@pytest.mark.parametrize("model", ["resnet50", "gpt2"])
@pytest.mark.parametrize("stages", [2, 4])
@pytest.mark.parametrize("schedule", ["gpipe", "1f1b"])
def test_pipeline_placement_matches_table_scan(traces, model, stages,
                                               schedule):
    trace = traces[model]
    ex = PipelineExtrapolator(trace, OpTimeModel(trace), stages, chunks=2,
                              schedule=schedule)
    ex.build(PlanBuilder())
    expected = TensorStore()
    oracle_place(trace, ex.split_stages(), ex.gpus, expected)
    assert snapshot(ex.store) == snapshot(expected)
    assert ex.store._home  # the oracle placed something


def test_tied_and_unordered_weights_match_table_scan():
    """Weights listed out of table order, repeated, and shared by ops on
    two stages: placement order and home devices match the oracle."""
    trace = Trace("toy", "A100", 1)
    for tid, category, dims in [(0, "input", (1, 4)), (12, "weight", (2,)),
                                (10, "weight", (4,)), (11, "weight", (8,)),
                                (1, "activation", (1, 4)),
                                (2, "activation", (1, 4)),
                                (3, "activation", (1, 4)),
                                (4, "activation", (1, 4))]:
        trace.add_tensor(TensorRecord(tid, dims, category=category))
    for i, inputs in enumerate([(0, 11, 10, 10), (1, 12), (2, 11),
                                (3, 12, 10)]):
        trace.add_operator(OperatorRecord(
            f"f{i}", "linear", f"l{i}", "forward", 1e-3, 1e6,
            inputs=inputs, outputs=(i + 1,)))
    ex = PipelineExtrapolator(trace, OpTimeModel(trace), 2)
    ex.build(PlanBuilder())
    stages = ex.split_stages()
    assert [len(stage) for stage in stages] == [2, 2]
    expected = TensorStore()
    oracle_place(trace, stages, ex.gpus, expected)
    assert snapshot(ex.store) == snapshot(expected)
    assert list(ex.store._home.items()) == [
        (10, "gpu0"), (11, "gpu0"), (12, "gpu0")]
    assert ex.store.locations(11) == {"gpu0", "gpu1"}


@pytest.mark.parametrize("model", ["resnet50", "gpt2"])
def test_hybrid_placement_matches_table_scan(traces, model):
    trace = traces[model]
    ex = HybridExtrapolator(trace, OpTimeModel(trace), dp_degree=2,
                            pp_stages=2, chunks=2)
    ex.build(PlanBuilder())
    expected = TensorStore()
    stages = ex._pipeline.split_stages()
    for replica in range(ex.dp_degree):
        oracle_place(trace, stages, ex.replica_gpus(replica), expected)
    assert snapshot(ex.store) == snapshot(expected)


def test_hybrid_stage_weights_live_on_every_replica():
    trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"), 16)
    ex = HybridExtrapolator(trace, OpTimeModel(trace), dp_degree=2,
                            pp_stages=2)
    ex.build(PlanBuilder())
    stages = ex._pipeline.split_stages()
    weights = [
        {tid for op in stage_ops for tid in op.inputs
         if trace.tensors[tid].category == "weight"}
        for stage_ops in stages
    ]
    assert all(weights)
    for replica in range(ex.dp_degree):
        for s, gpu in enumerate(ex.replica_gpus(replica)):
            for tid in weights[s]:
                assert ex.store.holds(tid, gpu), (replica, s, tid)
    # Replica 0's stage GPUs are every weight's home.
    for s, gpu in enumerate(ex.replica_gpus(0)):
        for tid in weights[s]:
            assert ex.store.home_of(tid) == gpu


def test_hybrid_fetches_inputs_per_replica_micro_batch():
    trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"), 16)
    ex = HybridExtrapolator(trace, OpTimeModel(trace), dp_degree=2,
                            pp_stages=2, chunks=2)
    ex.fetch_inputs = True
    builder = PlanBuilder()
    ex.build(builder)
    fetches = [name for name in builder.columns["name"]
               if name.startswith("h2d:")]
    assert fetches == ["h2d:gpu0/r0/mb0", "h2d:gpu0/r0/mb1",
                       "h2d:gpu2/r1/mb0", "h2d:gpu2/r1/mb1"]
    inputs = [t for t in trace.tensors.values() if t.category == "input"]
    assert inputs
    assert all(ex.store.home_of(t.tensor_id) == ex.HOST for t in inputs)
