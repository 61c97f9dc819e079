"""Structural tests for the trace extrapolators (task-graph shape)."""

from types import SimpleNamespace

import pytest

from repro.core.plan import PlanBuilder
from repro.core.taskgraph import KIND_NAMES, TASK_COLUMNS
from repro.extrapolator.data_parallel import (
    DataParallelExtrapolator,
    DistributedDataParallelExtrapolator,
)
from repro.extrapolator.optime import OpTimeModel
from repro.extrapolator.pipeline import PipelineExtrapolator
from repro.extrapolator.single import SingleGPUExtrapolator
from repro.extrapolator.tensor_parallel import TensorParallelExtrapolator
from repro.gpus.specs import get_gpu
from repro.trace.tracer import Tracer
from repro.workloads import get_model


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 64)


def _build(extrapolator):
    """The rows *extrapolator* records, as namespaces of the task
    columns with ``kind`` by name."""
    builder = PlanBuilder()
    extrapolator.build(builder)
    rows = zip(*(builder.columns[name] for name in TASK_COLUMNS))
    return [SimpleNamespace(**dict(zip(TASK_COLUMNS, row),
                                   kind=KIND_NAMES[row[0]]))
            for row in rows]


class TestSingle:
    def test_one_task_per_op(self, trace):
        ex = SingleGPUExtrapolator(trace, OpTimeModel(trace))
        tasks = _build(ex)
        compute = [t for t in tasks if t.kind == "compute"]
        assert len(compute) == len(trace.operators)
        assert all(t.gpu == "gpu0" for t in compute)

    def test_no_transfers(self, trace):
        tasks = _build(SingleGPUExtrapolator(trace, OpTimeModel(trace)))
        assert not any(t.kind == "transfer" for t in tasks)


class TestDDP:
    def test_replication(self, trace):
        ex = DistributedDataParallelExtrapolator(trace, OpTimeModel(trace), 2)
        tasks = _build(ex)
        compute = [t for t in tasks if t.kind == "compute"]
        # Every op (fwd+bwd+opt) appears once per GPU.
        assert len(compute) == 2 * len(trace.operators)

    def test_bucket_collectives_present(self, trace):
        ex = DistributedDataParallelExtrapolator(trace, OpTimeModel(trace), 2)
        tasks = _build(ex)
        buckets = {t.meta.get("collective") for t in tasks
                   if t.kind == "transfer"}
        assert len(buckets) == 2  # ResNet-18: ~47 MB of grads, 25 MiB buckets

    def test_no_overlap_single_collective(self, trace):
        ex = DistributedDataParallelExtrapolator(
            trace, OpTimeModel(trace), 2, overlap=False)
        tasks = _build(ex)
        buckets = {t.meta.get("collective") for t in tasks
                   if t.kind == "transfer"}
        assert len(buckets) == 1

    def test_bucket_bytes_respected(self, trace):
        small = DistributedDataParallelExtrapolator(
            trace, OpTimeModel(trace), 2, bucket_bytes=1024 * 1024)
        big = DistributedDataParallelExtrapolator(
            trace, OpTimeModel(trace), 2, bucket_bytes=10**9)
        assert len(small._bucket_boundaries()) > len(big._bucket_boundaries())

    def test_bucket_boundaries_cover_all_gradients(self, trace):
        ex = DistributedDataParallelExtrapolator(trace, OpTimeModel(trace), 2)
        total = sum(nbytes for _i, nbytes in ex._bucket_boundaries())
        assert total == trace.gradient_bytes


class TestDP:
    def test_has_replicate_and_reduce(self, trace):
        ex = DataParallelExtrapolator(trace, OpTimeModel(trace), 2)
        tasks = _build(ex)
        tags = {t.meta.get("collective") for t in tasks if t.kind == "transfer"}
        assert "replicate" in tags
        assert "grad_reduce" in tags

    def test_optimizer_only_on_root(self, trace):
        ex = DataParallelExtrapolator(trace, OpTimeModel(trace), 2)
        tasks = _build(ex)
        opt_tasks = [t for t in tasks
                     if t.kind == "compute" and t.meta.get("phase") == "optimizer"]
        assert opt_tasks
        assert all(t.gpu == "gpu0" for t in opt_tasks)


class TestTP:
    def test_gather_and_reduce_collectives(self, trace):
        ex = TensorParallelExtrapolator(trace, OpTimeModel(trace), 2)
        tasks = _build(ex)
        tags = [t.meta.get("collective", "") for t in tasks
                if t.kind == "transfer"]
        assert any(tag.startswith("gather:") for tag in tags)
        assert any(tag.startswith("reduce:") for tag in tags)

    def test_every_op_on_every_gpu(self, trace):
        ex = TensorParallelExtrapolator(trace, OpTimeModel(trace), 4)
        tasks = _build(ex)
        compute = [t for t in tasks if t.kind == "compute"]
        assert len(compute) == 4 * len(trace.operators)


class TestPP:
    def test_stage_split_contiguous(self, trace):
        ex = PipelineExtrapolator(trace, OpTimeModel(trace), 2, chunks=2)
        stages = ex.split_stages()
        flat = [op.name for stage in stages for op in stage]
        assert flat == [op.name for op in trace.forward_ops]

    def test_every_stage_count_splits(self, trace):
        # Up to one stage per forward op, every stage gets at least one
        # op and the ops keep their order.  From 15 stages on, the greedy
        # pass leaves several trailing stages empty on this trace.
        names = [op.name for op in trace.forward_ops]
        assert len(names) == 68
        for count in range(1, len(names) + 1):
            ex = PipelineExtrapolator(trace, OpTimeModel(trace), count,
                                      chunks=4)
            stages = ex.split_stages()
            assert len(stages) == count and all(stages), count
            assert [op.name for stage in stages for op in stage] == names

    def test_micro_batch_task_counts(self, trace):
        chunks = 2
        ex = PipelineExtrapolator(trace, OpTimeModel(trace), 2, chunks=chunks)
        tasks = _build(ex)
        fwd_tasks = [t for t in tasks
                     if t.kind == "compute" and t.meta.get("phase") == "forward"]
        assert len(fwd_tasks) == chunks * len(trace.forward_ops)

    def test_activation_transfers_per_boundary(self, trace):
        chunks = 4
        ex = PipelineExtrapolator(trace, OpTimeModel(trace), 2, chunks=chunks)
        tasks = _build(ex)
        acts = [t for t in tasks if t.kind == "transfer"
                and t.name.startswith("act:")]
        grads = [t for t in tasks if t.kind == "transfer"
                 and t.name.startswith("grad:")]
        assert len(acts) == chunks * 1  # one boundary for 2 stages
        assert len(grads) == chunks * 1

    def test_stages_pinned_to_distinct_gpus(self, trace):
        ex = PipelineExtrapolator(trace, OpTimeModel(trace), 2, chunks=1)
        tasks = _build(ex)
        fwd = [t for t in tasks
               if t.kind == "compute" and t.meta.get("phase") == "forward"]
        gpus = {t.gpu for t in fwd}
        assert gpus == {"gpu0", "gpu1"}

    def test_invalid_chunks(self, trace):
        with pytest.raises(ValueError):
            PipelineExtrapolator(trace, OpTimeModel(trace), 2, chunks=0)


class TestBaseValidation:
    def test_zero_gpus_rejected(self, trace):
        with pytest.raises(ValueError):
            DistributedDataParallelExtrapolator(trace, OpTimeModel(trace), 0)
