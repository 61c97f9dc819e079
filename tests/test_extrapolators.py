"""Structural tests for the trace extrapolators (task-graph shape)."""

import pytest

from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.extrapolator.data_parallel import (
    DataParallelExtrapolator,
    DistributedDataParallelExtrapolator,
)
from repro.extrapolator.optime import OpTimeModel
from repro.extrapolator.pipeline import PipelineExtrapolator
from repro.extrapolator.single import SingleGPUExtrapolator
from repro.extrapolator.tensor_parallel import TensorParallelExtrapolator
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.topology import ring
from repro.trace.tracer import Tracer
from repro.workloads import get_model


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 64)


def _build(extrapolator, n=2, bandwidth=100e9):
    engine = Engine()
    sim = TaskGraphSimulator(engine, FlowNetwork(engine, ring(max(n, 2), bandwidth)))
    extrapolator.build(sim)
    return sim


class TestSingle:
    def test_one_task_per_op(self, trace):
        ex = SingleGPUExtrapolator(trace, OpTimeModel(trace))
        sim = _build(ex, 1)
        compute = [t for t in sim.tasks if t.kind == "compute"]
        assert len(compute) == len(trace.operators)
        assert all(t.gpu == "gpu0" for t in compute)

    def test_no_transfers(self, trace):
        sim = _build(SingleGPUExtrapolator(trace, OpTimeModel(trace)), 1)
        assert not any(t.kind == "transfer" for t in sim.tasks)


class TestDDP:
    def test_replication(self, trace):
        ex = DistributedDataParallelExtrapolator(trace, OpTimeModel(trace), 2)
        sim = _build(ex, 2)
        compute = [t for t in sim.tasks if t.kind == "compute"]
        # Every op (fwd+bwd+opt) appears once per GPU.
        assert len(compute) == 2 * len(trace.operators)

    def test_bucket_collectives_present(self, trace):
        ex = DistributedDataParallelExtrapolator(trace, OpTimeModel(trace), 2)
        sim = _build(ex, 2)
        buckets = {t.meta.get("collective") for t in sim.tasks
                   if t.kind == "transfer"}
        assert len(buckets) == 2  # ResNet-18: ~47 MB of grads, 25 MiB buckets

    def test_no_overlap_single_collective(self, trace):
        ex = DistributedDataParallelExtrapolator(
            trace, OpTimeModel(trace), 2, overlap=False)
        sim = _build(ex, 2)
        buckets = {t.meta.get("collective") for t in sim.tasks
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
        sim = _build(ex, 2)
        tags = {t.meta.get("collective") for t in sim.tasks if t.kind == "transfer"}
        assert "replicate" in tags
        assert "grad_reduce" in tags

    def test_optimizer_only_on_root(self, trace):
        ex = DataParallelExtrapolator(trace, OpTimeModel(trace), 2)
        sim = _build(ex, 2)
        opt_tasks = [t for t in sim.tasks
                     if t.kind == "compute" and t.meta.get("phase") == "optimizer"]
        assert opt_tasks
        assert all(t.gpu == "gpu0" for t in opt_tasks)


class TestTP:
    def test_gather_and_reduce_collectives(self, trace):
        ex = TensorParallelExtrapolator(trace, OpTimeModel(trace), 2)
        sim = _build(ex, 2)
        tags = [t.meta.get("collective", "") for t in sim.tasks
                if t.kind == "transfer"]
        assert any(tag.startswith("gather:") for tag in tags)
        assert any(tag.startswith("reduce:") for tag in tags)

    def test_every_op_on_every_gpu(self, trace):
        ex = TensorParallelExtrapolator(trace, OpTimeModel(trace), 4)
        sim = _build(ex, 4)
        compute = [t for t in sim.tasks if t.kind == "compute"]
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
        sim = _build(ex, 2)
        fwd_tasks = [t for t in sim.tasks
                     if t.kind == "compute" and t.meta.get("phase") == "forward"]
        assert len(fwd_tasks) == chunks * len(trace.forward_ops)

    def test_activation_transfers_per_boundary(self, trace):
        chunks = 4
        ex = PipelineExtrapolator(trace, OpTimeModel(trace), 2, chunks=chunks)
        sim = _build(ex, 2)
        acts = [t for t in sim.tasks if t.kind == "transfer"
                and t.name.startswith("act:")]
        grads = [t for t in sim.tasks if t.kind == "transfer"
                 and t.name.startswith("grad:")]
        assert len(acts) == chunks * 1  # one boundary for 2 stages
        assert len(grads) == chunks * 1

    def test_stages_pinned_to_distinct_gpus(self, trace):
        ex = PipelineExtrapolator(trace, OpTimeModel(trace), 2, chunks=1)
        sim = _build(ex, 2)
        fwd = [t for t in sim.tasks
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
