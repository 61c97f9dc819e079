"""Tensor-parallel trace extrapolation.

Two schemes:

* ``layerwise`` (default) — the BlackSamorez ``tensor_parallel`` execution
  the paper validates against: every shardable operator (convolution,
  linear, embedding, matmul —
  :data:`~repro.workloads.graph.TENSOR_PARALLEL_KINDS`) splits its output
  across all GPUs and communicates at the layer's end (forward:
  all-gather the output; backward: AllReduce the partial input gradient).
  Per the paper (§4.3): "the trace extrapolator distributes divided
  operators into each GPU's queue and appends the necessary communication
  operators at the layer's end".

* ``megatron`` — Megatron-LM's column/row-parallel pairing for
  transformers: QKV / up / gate projections are column-parallel (their
  sharded outputs feed sharded attention/MLP math directly, no
  communication), while the attention output and MLP down projections are
  row-parallel — their partial outputs AllReduce.  Two collectives per
  block per direction instead of one per layer.  Operators whose layer
  name does not match a column-parallel role fall back to the layerwise
  rule, so the scheme degrades gracefully on CNNs.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.collectives.ring import ring_all_gather, ring_all_reduce
from repro.core.plan import PlanBuilder
from repro.extrapolator.base import Extrapolator
from repro.extrapolator.optime import OpTimeModel
from repro.trace.records import OperatorRecord
from repro.trace.trace import Trace

TP_SCHEMES = ("layerwise", "megatron")

#: Layer-name suffixes whose outputs stay sharded under Megatron TP
#: (column-parallel layers and the per-head attention math between them).
_MEGATRON_COLUMN_SUFFIXES = (
    ".q_proj", ".k_proj", ".v_proj", ".up_proj", ".gate_proj",
    ".scores", ".softmax", ".context", ".act", ".gate_mul",
)

#: Row-parallel layers: partial outputs AllReduce (the g operator).
_MEGATRON_ROW_SUFFIXES = (".out_proj", ".down_proj")


class TensorParallelExtrapolator(Extrapolator):
    """Per-layer sharding with configurable communication scheme."""

    def __init__(self, trace: Trace, op_time: OpTimeModel, num_gpus: int,
                 batch_scale: float = 1.0, scheme: str = "layerwise"):
        super().__init__(trace, op_time, num_gpus)
        if scheme not in TP_SCHEMES:
            raise ValueError(f"unknown TP scheme {scheme!r}; known: {TP_SCHEMES}")
        self.batch_scale = batch_scale
        self.scheme = scheme

    def _communicates(self, op: OperatorRecord) -> bool:
        """Whether a sharded operator's boundary needs a collective."""
        if self.scheme == "layerwise":
            return True
        # Megatron: column-parallel outputs (and the sharded attention/MLP
        # interior) stay sharded; everything else synchronizes.
        return not op.layer.endswith(_MEGATRON_COLUMN_SUFFIXES)

    def _shardable(self, op: OperatorRecord) -> bool:
        if self.op_time.shardable(op):
            return True
        # Megatron also shards the per-head interior element-wise ops
        # (softmax, activations) because their inputs are already sharded.
        return (self.scheme == "megatron"
                and op.layer.endswith(_MEGATRON_COLUMN_SUFFIXES))

    def _emit_pass(self, sim: PlanBuilder, ops: Sequence[OperatorRecord],
                   start: Sequence[int], suffix: str) -> List[int]:
        """Emit one (forward or backward) pass; returns its final tasks."""
        frontier: List[int] = list(start)
        for op in ops:
            sharded = self._shardable(op)
            shard = self.num_gpus if sharded else 1
            # Non-parallelizable kinds sharded by Megatron (softmax etc.)
            # split element-wise: scale the batch instead of the weights.
            if sharded and not self.op_time.shardable(op):
                duration = self.op_time.duration(
                    op, self.batch_scale / self.num_gpus, 1
                )
            else:
                duration = self.op_time.duration(op, self.batch_scale, shard)
            layer_tasks = [
                sim.add_compute(
                    f"{gpu}:{op.name}{suffix}", gpu, duration,
                    deps=frontier, phase=op.phase, layer=op.layer,
                )
                for gpu in self.gpus
            ]
            if sharded and self._communicates(op):
                out_bytes = self.op_time.output_act_bytes(op, self.batch_scale)
                row_parallel = (self.scheme == "megatron"
                                and op.layer.endswith(_MEGATRON_ROW_SUFFIXES))
                if op.phase == "forward":
                    if row_parallel:
                        # Row-parallel output: partial sums AllReduce.
                        frontier = ring_all_reduce(
                            sim, self.gpus, out_bytes, deps=layer_tasks,
                            tag=f"reduce:{op.name}{suffix}",
                        )
                    else:
                        # Collect the sharded layer output on every GPU.
                        frontier = ring_all_gather(
                            sim, self.gpus, out_bytes, deps=layer_tasks,
                            tag=f"gather:{op.name}{suffix}",
                        )
                else:
                    # The backward op's output is the (partial) input
                    # gradient; shards AllReduce it into the full tensor.
                    frontier = ring_all_reduce(
                        sim, self.gpus, out_bytes, deps=layer_tasks,
                        tag=f"reduce:{op.name}{suffix}",
                    )
            else:
                frontier = layer_tasks
        return frontier

    def build(self, sim: PlanBuilder) -> None:
        fetch = [
            task for gpu in self.gpus
            for task in self.add_input_fetch(sim, gpu, self.batch_scale)
        ]
        frontier = self._emit_pass(sim, self.trace.forward_ops, fetch, "")
        frontier = self._emit_pass(sim, self.trace.backward_ops, frontier, "")
        # Each GPU updates its (sharded + replicated) parameters locally.
        for gpu in self.gpus:
            self.chain_ops(sim, gpu, self.trace.optimizer_ops, deps=frontier)
