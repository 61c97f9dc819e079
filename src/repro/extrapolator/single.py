"""Single-GPU replay (with optional batch rescaling).

The degenerate extrapolation: every traced operator runs on one GPU in
trace order.  With ``batch_scale != 1`` this is the paper's Figure 6
experiment — predicting a batch-256 iteration from a batch-128 trace.
"""

from __future__ import annotations

from repro.core.plan import PlanBuilder
from repro.extrapolator.base import Extrapolator
from repro.extrapolator.optime import OpTimeModel
from repro.trace.trace import Trace


class SingleGPUExtrapolator(Extrapolator):
    """Replays the trace on a single simulated GPU."""

    def __init__(self, trace: Trace, op_time: OpTimeModel,
                 batch_scale: float = 1.0):
        super().__init__(trace, op_time, num_gpus=1)
        self.batch_scale = batch_scale

    def build(self, sim: PlanBuilder) -> None:
        gpu = self.gpus[0]
        fetch = self.add_input_fetch(sim, gpu, self.batch_scale)
        self.chain_ops(sim, gpu, self.trace.operators, deps=fetch,
                       batch_scale=self.batch_scale)
