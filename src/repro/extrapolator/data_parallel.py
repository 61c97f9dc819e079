"""Data-parallel trace extrapolation.

Two variants, matching PyTorch's two modules (paper §5):

* **Standard DataParallel** (threaded): GPU 0 re-replicates the module
  each iteration (ring broadcast of the weights), the batch is scattered,
  every replica runs forward + backward, gradients are ring-reduced back
  to GPU 0, and GPU 0 steps the optimizer.  Communication does not overlap
  computation.
* **DistributedDataParallel** (one process per GPU): replicas are
  persistent; gradients are grouped into buckets that AllReduce as soon as
  their last gradient is produced, overlapping the remaining backward pass
  (paper §4.3: "adds the necessary operators for the AllReduce operation
  either parallel with the backward pass ... or after the backward pass").
"""

from __future__ import annotations

from typing import List, Sequence

from repro.collectives.dispatch import all_reduce
from repro.collectives.ring import ring_broadcast, ring_reduce, ring_scatter
from repro.core.plan import PlanBuilder
from repro.extrapolator.base import Extrapolator
from repro.extrapolator.optime import OpTimeModel
from repro.trace.trace import Trace

#: PyTorch DDP's default gradient bucket size.
DEFAULT_BUCKET_BYTES = 25 * 1024 * 1024


class DataParallelExtrapolator(Extrapolator):
    """Threaded ``torch.nn.DataParallel``: compute, then synchronize."""

    def __init__(self, trace: Trace, op_time: OpTimeModel, num_gpus: int,
                 batch_scale: float = 1.0):
        super().__init__(trace, op_time, num_gpus)
        self.batch_scale = batch_scale

    def build(self, sim: PlanBuilder) -> None:
        param_bytes = sum(t.nbytes for t in self.trace.weight_tensors())
        input_bytes = sum(
            self.trace.tensors[t].nbytes
            for op in self.trace.forward_ops[:1]
            for t in op.inputs
            if self.trace.tensors[t].category == "input"
        ) * self.batch_scale
        # Module replication + input scatter from GPU 0 (which first
        # loads the whole global batch from host memory when enabled).
        fetch = self.add_input_fetch(sim, self.gpus[0], self.batch_scale,
                                     fraction=float(self.num_gpus))
        replicate = ring_broadcast(sim, self.gpus, param_bytes, deps=fetch,
                                   tag="replicate")
        scatter = ring_scatter(sim, self.gpus, input_bytes * self.num_gpus,
                               deps=replicate, tag="scatter")
        start: Sequence[int] = replicate + scatter
        # Replicated forward + backward on every GPU.
        last_bwd: List[int] = []
        compute_ops = self.trace.forward_ops + self.trace.backward_ops
        for gpu in self.gpus:
            tasks = self.chain_ops(sim, gpu, compute_ops, deps=start,
                                   batch_scale=self.batch_scale)
            last_bwd.append(tasks[-1])
        # Gradients reduce to GPU 0, which steps the optimizer.
        grad_bytes = self.trace.gradient_bytes
        reduced = ring_reduce(sim, self.gpus, grad_bytes, root=0,
                              deps=last_bwd, tag="grad_reduce")
        self.chain_ops(sim, self.gpus[0], self.trace.optimizer_ops,
                       deps=reduced, batch_scale=self.batch_scale)


class DistributedDataParallelExtrapolator(Extrapolator):
    """``DistributedDataParallel``: bucketed AllReduce overlaps backward."""

    def __init__(self, trace: Trace, op_time: OpTimeModel, num_gpus: int,
                 batch_scale: float = 1.0,
                 bucket_bytes: int = DEFAULT_BUCKET_BYTES,
                 overlap: bool = True, collective_scheme: str = "ring",
                 node_groups=None):
        super().__init__(trace, op_time, num_gpus)
        self.batch_scale = batch_scale
        self.bucket_bytes = bucket_bytes
        self.overlap = overlap
        self.collective_scheme = collective_scheme
        self.node_groups = node_groups

    def _bucket_boundaries(self) -> List[tuple]:
        """(index of last backward op in bucket, bucket bytes) pairs, in
        backward execution order."""
        boundaries = []
        acc = 0.0
        last_idx = None
        bwd_ops = self.trace.backward_ops
        for idx, op in enumerate(bwd_ops):
            produced = self.op_time.gradient_bytes(op)
            if produced > 0:
                acc += produced
                last_idx = idx
            if acc >= self.bucket_bytes:
                boundaries.append((last_idx, acc))
                acc = 0.0
        if acc > 0 and last_idx is not None:
            boundaries.append((last_idx, acc))
        return boundaries

    def build(self, sim: PlanBuilder) -> None:
        fwd_ops = self.trace.forward_ops
        bwd_ops = self.trace.backward_ops
        per_gpu_bwd_tasks: List[List[int]] = []
        for gpu in self.gpus:
            # Each rank loads its own input shard from host memory.
            fetch = self.add_input_fetch(sim, gpu, self.batch_scale)
            fwd = self.chain_ops(sim, gpu, fwd_ops, deps=fetch,
                                 batch_scale=self.batch_scale)
            # Inference traces have no backward ops; the forward tail then
            # anchors the (empty) synchronization stage.
            bwd = self.chain_ops(sim, gpu, bwd_ops, deps=[fwd[-1]],
                                 batch_scale=self.batch_scale) or fwd
            per_gpu_bwd_tasks.append(bwd)
        # Gradient buckets: AllReduce chained one after another (one NCCL
        # stream), each starting once its gradients exist on every GPU.
        prev_collective: List[int] = []
        boundaries = self._bucket_boundaries()
        if not self.overlap and boundaries:
            # Fuse everything into one post-backward AllReduce.
            total = sum(nbytes for _idx, nbytes in boundaries)
            boundaries = [(len(bwd_ops) - 1, total)]
        for bucket_no, (idx, nbytes) in enumerate(boundaries):
            deps = [tasks[idx] for tasks in per_gpu_bwd_tasks] + prev_collective
            prev_collective = all_reduce(
                sim, self.gpus, nbytes, deps=deps, tag=f"bucket{bucket_no}",
                scheme=self.collective_scheme, node_groups=self.node_groups,
            )
        # Every GPU steps its own optimizer after backward + its gradients.
        for gpu, bwd in zip(self.gpus, per_gpu_bwd_tasks):
            deps = [bwd[-1]] + prev_collective
            self.chain_ops(sim, gpu, self.trace.optimizer_ops, deps=deps,
                           batch_scale=self.batch_scale)
