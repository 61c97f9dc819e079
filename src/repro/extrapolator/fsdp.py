"""Fully-sharded data parallelism (FSDP / ZeRO-3 style) extrapolation.

Each GPU permanently holds only a ``1/n`` shard of every parameter,
gradient, and optimizer state.  Execution groups consecutive layers into
*units* (by parameter bytes, like DDP's buckets) and, per unit:

* **forward** — all-gather the unit's parameters, compute, discard;
* **backward** — all-gather the parameters again, compute gradients,
  reduce-scatter them (each rank keeps its shard);
* **optimizer** — update the local shard only.

Prefetch falls out of the task DAG: a unit's all-gather runs on the
network while the previous unit computes, serialized only against other
collectives (one NCCL stream), exactly like DDP's bucket overlap.  Total
traffic is 3x the parameter bytes per iteration (vs DDP's 2x via
AllReduce) — the classic ZeRO trade of communication for memory.

This extends the paper (which covers DP/TP/PP); the companion memory
rule lives in :mod:`repro.memory.estimator`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.collectives.ring import ring_all_gather, ring_reduce_scatter
from repro.core.plan import PlanBuilder
from repro.extrapolator.base import Extrapolator
from repro.extrapolator.optime import OpTimeModel
from repro.trace.records import OperatorRecord
from repro.trace.trace import Trace

#: Default FSDP unit size (parameter bytes gathered at once).
DEFAULT_UNIT_BYTES = 25 * 1024 * 1024


class FSDPExtrapolator(Extrapolator):
    """ZeRO-3-style sharded data parallelism."""

    def __init__(self, trace: Trace, op_time: OpTimeModel, num_gpus: int,
                 batch_scale: float = 1.0,
                 unit_bytes: int = DEFAULT_UNIT_BYTES):
        super().__init__(trace, op_time, num_gpus)
        self.batch_scale = batch_scale
        self.unit_bytes = unit_bytes

    # ------------------------------------------------------------------
    # Unit formation
    # ------------------------------------------------------------------
    def _op_param_bytes(self, op: OperatorRecord) -> float:
        return sum(
            self.trace.tensors[t].nbytes
            for t in op.inputs
            if self.trace.tensors[t].category == "weight"
        )

    def units(self) -> List[Tuple[List[OperatorRecord], float]]:
        """Consecutive forward-op groups and their parameter bytes."""
        result: List[Tuple[List[OperatorRecord], float]] = []
        current: List[OperatorRecord] = []
        acc = 0.0
        for op in self.trace.forward_ops:
            current.append(op)
            acc += self._op_param_bytes(op)
            if acc >= self.unit_bytes:
                result.append((current, acc))
                current, acc = [], 0.0
        if current:
            result.append((current, acc))
        return result

    # ------------------------------------------------------------------
    # DAG construction
    # ------------------------------------------------------------------
    def build(self, sim: PlanBuilder) -> None:
        units = self.units()
        bwd_by_layer = {op.layer: op for op in self.trace.backward_ops}
        opt_by_layer: dict = {}
        for op in self.trace.optimizer_ops:
            opt_by_layer.setdefault(op.layer, []).append(op)
        has_backward = bool(bwd_by_layer)

        fetch = {
            gpu: self.add_input_fetch(sim, gpu, self.batch_scale)
            for gpu in self.gpus
        }

        # Forward: per unit, gather -> compute.  Gathers serialize on the
        # collective stream; compute chains per GPU (FIFO handles it).
        prev_collective: Sequence[int] = []
        prev_compute = {gpu: list(fetch[gpu]) for gpu in self.gpus}
        unit_fwd_end: List[dict] = []
        for idx, (ops, param_bytes) in enumerate(units):
            gather = ring_all_gather(
                sim, self.gpus, param_bytes, deps=prev_collective,
                tag=f"fsdp_gather_fwd{idx}",
            )
            prev_collective = gather
            ends = {}
            for gpu in self.gpus:
                tasks = self.chain_ops(
                    sim, gpu, ops, deps=list(prev_compute[gpu]) + gather,
                    batch_scale=self.batch_scale,
                )
                prev_compute[gpu] = [tasks[-1]]
                ends[gpu] = tasks[-1]
            unit_fwd_end.append(ends)

        if not has_backward:
            return

        # Backward: reverse unit order; re-gather, compute, reduce-scatter.
        final_rs: Sequence[int] = []
        for idx in range(len(units) - 1, -1, -1):
            ops, param_bytes = units[idx]
            gather = ring_all_gather(
                sim, self.gpus, param_bytes, deps=prev_collective,
                tag=f"fsdp_gather_bwd{idx}",
            )
            prev_collective = gather
            bwd_ops = [
                bwd_by_layer[op.layer]
                for op in reversed(ops)
                if op.layer in bwd_by_layer
            ]
            ends = []
            for gpu in self.gpus:
                tasks = self.chain_ops(
                    sim, gpu, bwd_ops,
                    deps=list(prev_compute[gpu]) + gather,
                    batch_scale=self.batch_scale,
                )
                if tasks:
                    prev_compute[gpu] = [tasks[-1]]
                    ends.append(tasks[-1])
            grad_bytes = sum(
                self.op_time.gradient_bytes(op) for op in bwd_ops
            )
            if grad_bytes > 0:
                final_rs = ring_reduce_scatter(
                    sim, self.gpus, grad_bytes,
                    deps=ends + list(prev_collective),
                    tag=f"fsdp_rs{idx}",
                )
                prev_collective = final_rs

        # Optimizer: each rank updates its 1/n shard (scaled via sharding
        # the optimizer ops' work by num_gpus).
        for gpu in self.gpus:
            deps = list(prev_compute[gpu]) + list(prev_collective)
            prev: Sequence[int] = deps
            for op in self.trace.optimizer_ops:
                duration = self.op_time.duration(op) / self.num_gpus
                task = sim.add_compute(
                    f"{gpu}:{op.name}/shard", gpu, duration, deps=prev,
                    phase=op.phase, layer=op.layer,
                )
                prev = [task]
