"""Hybrid parallelism: data-parallel replicas of a GPipe pipeline.

The most common large-model recipe (Megatron-style DP x PP): ``dp_degree``
replicas each run the model as a ``pp_stages``-deep pipeline; after a
replica's backward drains, each stage's gradients AllReduce *across
replicas* (the group of GPUs holding the same stage), and every GPU then
steps its own shard of the optimizer.

The paper lists hybrid parallelism as supported by DistSim/vTrain but not
TrioSim (Table 1); this module implements it as the natural composition of
the existing extrapolators — replica ``r``'s stage ``s`` lives on
``gpu{r * pp_stages + s}``, so pipeline neighbours stay adjacent on a ring
while AllReduce groups stride across it (their traffic genuinely contends
in the flow model, as it does on real hardware).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.collectives.ring import ring_all_reduce
from repro.core.plan import PlanBuilder
from repro.extrapolator.base import Extrapolator
from repro.extrapolator.optime import OpTimeModel
from repro.extrapolator.pipeline import PipelineExtrapolator
from repro.trace.trace import Trace


class HybridExtrapolator(Extrapolator):
    """DP x PP hybrid: ``dp_degree`` pipelines of ``pp_stages`` stages.

    ``batch_scale`` applies to each replica's mini-batch (per-replica
    batch = trace batch x scale), matching the DDP convention.
    """

    def __init__(self, trace: Trace, op_time: OpTimeModel, dp_degree: int,
                 pp_stages: int, chunks: int = 1, batch_scale: float = 1.0):
        if dp_degree < 1 or pp_stages < 1:
            raise ValueError("dp_degree and pp_stages must be >= 1")
        super().__init__(trace, op_time, dp_degree * pp_stages)
        self.dp_degree = dp_degree
        self.pp_stages = pp_stages
        self.chunks = chunks
        self.batch_scale = batch_scale
        self._pipeline = PipelineExtrapolator(
            trace, op_time, pp_stages, chunks=chunks, batch_scale=batch_scale
        )

    def replica_gpus(self, replica: int) -> List[str]:
        """The GPUs hosting one replica's pipeline, stage-adjacent."""
        base = replica * self.pp_stages
        return self.gpus[base:base + self.pp_stages]

    def stage_group(self, stage: int) -> List[str]:
        """The GPUs holding the same stage across all replicas."""
        return [
            self.gpus[replica * self.pp_stages + stage]
            for replica in range(self.dp_degree)
        ]

    def _stage_gradient_bytes(self, stages) -> List[float]:
        """Parameter-gradient payload produced by each stage."""
        bwd_grads = {
            op.layer: self.op_time.gradient_bytes(op)
            for op in self.trace.backward_ops
        }
        return [
            sum(bwd_grads.get(op.layer, 0.0) for op in stage_ops)
            for stage_ops in stages
        ]

    def build(self, sim: PlanBuilder) -> None:
        # One pipeline per replica (optimizer deferred until after the
        # cross-replica gradient synchronization).
        per_replica: List[Sequence[int]] = []
        stages = None
        self._pipeline.fetch_inputs = self.fetch_inputs
        for replica in range(self.dp_degree):
            stages, final_bwd = self._pipeline.build_pipeline(
                sim, self.replica_gpus(replica),
                name_prefix=f"/r{replica}", run_optimizer=False,
            )
            if final_bwd is None:
                raise ValueError("hybrid parallelism needs a training trace")
            per_replica.append(final_bwd)

        grad_bytes = self._stage_gradient_bytes(stages)
        opt_by_layer = {}
        for op in self.trace.optimizer_ops:
            opt_by_layer.setdefault(op.layer, []).append(op)

        for stage in range(self.pp_stages):
            deps = [final_bwd[stage] for final_bwd in per_replica]
            done = ring_all_reduce(
                sim, self.stage_group(stage), grad_bytes[stage],
                deps=deps, tag=f"hybrid_grad:s{stage}",
            )
            opt_ops = [
                op for fwd in stages[stage]
                for op in opt_by_layer.get(fwd.layer, [])
            ]
            for gpu in self.stage_group(stage):
                if opt_ops:
                    self.chain_ops(sim, gpu, opt_ops, deps=done)
