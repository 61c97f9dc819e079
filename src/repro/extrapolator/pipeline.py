"""Pipeline-parallel (GPipe) trace extrapolation.

Implements the paper's GPipe schedule (§4.3, Figure 4): the layer chain is
split into contiguous stages assigned to GPUs (balanced by compute time —
§8.2), the mini-batch is divided into equal micro-batches, all
micro-batches flow forward through the pipeline, then backward in reverse,
with activation/gradient transfers inserted between neighbouring stages.

Micro-batch operator times come from Li's Model (a micro-batch is smaller
than the traced batch).  Each GPU's FIFO compute queue serializes its own
micro-batches, so pipeline bubbles emerge naturally from the dependency
structure rather than from an analytical formula.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from repro.core.plan import PlanBuilder
from repro.extrapolator.base import Extrapolator
from repro.extrapolator.optime import OpTimeModel
from repro.trace.records import OperatorRecord
from repro.trace.trace import Trace


PP_SCHEDULES = ("gpipe", "1f1b")


class PipelineExtrapolator(Extrapolator):
    """Pipeline parallelism over ``num_gpus`` stages.

    Two schedules:

    * ``gpipe`` (default; what the paper implements and validates) — all
      micro-batches forward, then all backward in reverse order.
    * ``1f1b`` — after a ``stages - s - 1`` micro-batch warm-up, stage
      ``s`` alternates one backward with one forward, draining activations
      as it goes.  For balanced stages the bubble (and therefore the
      iteration time) matches GPipe's; the benefit is peak activation
      memory — at most ``stages`` micro-batches live instead of all
      ``chunks`` (see ``estimate_memory(..., pp_schedule="1f1b")``).
    """

    def __init__(self, trace: Trace, op_time: OpTimeModel, num_gpus: int,
                 chunks: int = 1, batch_scale: float = 1.0,
                 schedule: str = "gpipe"):
        super().__init__(trace, op_time, num_gpus)
        if chunks < 1:
            raise ValueError("chunks must be >= 1")
        if schedule not in PP_SCHEDULES:
            raise ValueError(
                f"unknown pipeline schedule {schedule!r}; known: {PP_SCHEDULES}"
            )
        self.chunks = chunks
        self.schedule = schedule
        #: batch_scale applies to the mini-batch; micro-batches divide it.
        self.micro_scale = batch_scale / chunks

    def _issue_priorities(self, num_stages: int):
        """Per-stage 1F1B issue order: maps (stage, dir, micro) to a
        priority (lower issues first among ready tasks)."""
        priorities = {}
        m = self.chunks
        for s in range(num_stages):
            warmup = min(num_stages - 1 - s, m)
            seq = [("fwd", i) for i in range(warmup)]
            f, b = warmup, 0
            while b < m:
                seq.append(("bwd", b))
                b += 1
                if f < m:
                    seq.append(("fwd", f))
                    f += 1
            for pos, (direction, micro) in enumerate(seq):
                priorities[(s, direction, micro)] = pos
        return priorities

    # ------------------------------------------------------------------
    # Stage assignment
    # ------------------------------------------------------------------
    def split_stages(self) -> List[List[OperatorRecord]]:
        """Contiguous forward-op stages balanced by fwd+bwd trace time."""
        fwd_ops = self.trace.forward_ops
        if self.num_gpus > len(fwd_ops):
            raise ValueError(
                f"cannot split {len(fwd_ops)} layers into {self.num_gpus} stages"
            )
        bwd_by_layer = {op.layer: op.duration for op in self.trace.backward_ops}
        weights = [op.duration + bwd_by_layer.get(op.layer, 0.0) for op in fwd_ops]
        total = sum(weights) or 1.0
        target = total / self.num_gpus
        stages: List[List[OperatorRecord]] = [[] for _ in range(self.num_gpus)]
        stage = 0
        acc = 0.0
        remaining = len(fwd_ops)
        for op, w in zip(fwd_ops, weights):
            advance = acc >= target and stage < self.num_gpus - 1
            room = remaining > (self.num_gpus - 1 - stage)
            if advance and stages[stage] and room:
                stage += 1
                acc = 0.0
            stages[stage].append(op)
            acc += w
            remaining -= 1
        # Trailing stages the greedy pass left empty each take the last op
        # of the nearest non-empty stage before them, so ops stay in order.
        for i in range(self.num_gpus - 1, 0, -1):
            if not stages[i]:
                donor = next(j for j in range(i - 1, -1, -1) if stages[j])
                stages[i].append(stages[donor].pop())
        return stages

    # ------------------------------------------------------------------
    # DAG construction
    # ------------------------------------------------------------------
    def build(self, sim: PlanBuilder) -> None:
        self.build_pipeline(sim, self.gpus, run_optimizer=True)

    def build_pipeline(self, sim: PlanBuilder, gpus: Sequence[str],
                       name_prefix: str = "", run_optimizer: bool = True):
        """Emit one GPipe pipeline over *gpus*.

        Returns ``(stages, stage_final_bwd)``: the stage operator lists and
        the final backward task of each stage (``None`` for inference
        traces) — what hybrid parallelism chains its gradient AllReduce
        onto.  ``name_prefix`` disambiguates replicas.
        """
        stages = self.split_stages()
        n, m = len(gpus), self.chunks
        if n != self.num_gpus:
            raise ValueError("gpu list must match the configured stage count")
        bwd_by_layer: Dict[str, OperatorRecord] = {
            op.layer: op for op in self.trace.backward_ops
        }
        opt_by_layer: Dict[str, List[OperatorRecord]] = defaultdict(list)
        for op in self.trace.optimizer_ops:
            opt_by_layer[op.layer].append(op)

        one_f_one_b = self.schedule == "1f1b"
        priorities = self._issue_priorities(n) if one_f_one_b else {}

        # Forward wave: fwd[s][m] is the last compute task of that cell.
        fwd_last: List[List[int]] = [[None] * m for _ in range(n)]
        fwd_xfer: List[List[int]] = [[None] * m for _ in range(n)]
        for micro in range(m):
            for s in range(n):
                deps: List[int] = []
                if micro > 0:
                    deps.append(fwd_last[s][micro - 1])
                if s > 0:
                    deps.append(fwd_xfer[s - 1][micro])
                elif self.fetch_inputs:
                    deps.extend(self.add_input_fetch(
                        sim, gpus[0], self.micro_scale,
                        tag=f"{name_prefix}/mb{micro}",
                    ))
                tasks = self.chain_ops(
                    sim, gpus[s], stages[s], deps=deps,
                    batch_scale=self.micro_scale,
                    name_suffix=f"{name_prefix}/mb{micro}",
                    priority=priorities.get((s, "fwd", micro), 0),
                )
                fwd_last[s][micro] = tasks[-1]
                if s < n - 1:
                    boundary = stages[s][-1]
                    nbytes = self.op_time.output_act_bytes(boundary, self.micro_scale)
                    fwd_xfer[s][micro] = sim.add_transfer(
                        f"act:{name_prefix}s{s}->s{s + 1}/mb{micro}",
                        gpus[s], gpus[s + 1], nbytes,
                        deps=[tasks[-1]], phase="forward",
                    )

        if not bwd_by_layer:
            return stages, None  # inference trace: forward-only pipeline

        # Backward wave.  GPipe: all-forward-then-backward, reverse micro
        # order.  1F1B: a micro's backward needs only its *own* forward
        # (plus the gradient from downstream); backwards run in ascending
        # micro order and the per-stage issue priorities interleave them
        # with the remaining forwards.
        bwd_last: List[List[int]] = [[None] * m for _ in range(n)]
        bwd_xfer: List[List[int]] = [[None] * m for _ in range(n)]
        micro_order = range(m) if one_f_one_b else range(m - 1, -1, -1)
        for micro in micro_order:
            for s in range(n - 1, -1, -1):
                if one_f_one_b:
                    deps = [fwd_last[s][micro]]
                    if micro > 0:
                        deps.append(bwd_last[s][micro - 1])
                else:
                    deps = [fwd_last[s][m - 1]]
                    if micro < m - 1:
                        deps.append(bwd_last[s][micro + 1])
                if s < n - 1:
                    deps.append(bwd_xfer[s + 1][micro])
                stage_bwd = [
                    bwd_by_layer[op.layer]
                    for op in reversed(stages[s])
                    if op.layer in bwd_by_layer
                ]
                tasks = self.chain_ops(
                    sim, gpus[s], stage_bwd, deps=deps,
                    batch_scale=self.micro_scale,
                    name_suffix=f"{name_prefix}/mb{micro}",
                    priority=priorities.get((s, "bwd", micro), 0),
                )
                bwd_last[s][micro] = tasks[-1] if tasks else sim.add_barrier(
                    f"bwd:{name_prefix}s{s}/mb{micro}", deps=deps
                )
                if s > 0:
                    boundary = stages[s][0]
                    # The gradient w.r.t. the stage input has the size of
                    # the previous stage's output activation.
                    prev_out = stages[s - 1][-1]
                    nbytes = self.op_time.output_act_bytes(prev_out, self.micro_scale)
                    bwd_xfer[s][micro] = sim.add_transfer(
                        f"grad:{name_prefix}s{s}->s{s - 1}/mb{micro}",
                        gpus[s], gpus[s - 1], nbytes,
                        deps=[bwd_last[s][micro]], phase="backward",
                    )

        last_micro = m - 1 if one_f_one_b else 0
        stage_final_bwd = [bwd_last[s][last_micro] for s in range(n)]
        if run_optimizer:
            # Per-stage optimizer after the stage's final backward micro-batch.
            for s, stage_ops in enumerate(stages):
                opt_ops = [
                    op for fwd in stage_ops for op in opt_by_layer.get(fwd.layer, [])
                ]
                if opt_ops:
                    self.chain_ops(sim, gpus[s], opt_ops,
                                   deps=[stage_final_bwd[s]],
                                   name_suffix=name_prefix)
        return stages, stage_final_bwd
