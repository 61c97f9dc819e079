"""Multi-GPU trace extrapolation.

The extrapolator converts a single-GPU trace into a multi-GPU execution —
the paper's central contribution.  Each strategy records a task DAG into
a :class:`~repro.core.plan.PlanBuilder`:

* :class:`~repro.extrapolator.data_parallel.DataParallelExtrapolator` —
  threaded ``DataParallel``: replicate, compute, AllReduce after backward.
* :class:`~repro.extrapolator.data_parallel.DistributedDataParallelExtrapolator`
  — ``DistributedDataParallel``: gradient buckets AllReduce concurrently
  with the remaining backward pass.
* :class:`~repro.extrapolator.tensor_parallel.TensorParallelExtrapolator` —
  shardable operators split across GPUs, outputs all-gathered per layer.
* :class:`~repro.extrapolator.pipeline.PipelineExtrapolator` — GPipe:
  contiguous stages, micro-batches, activation transfers between stages.
* :class:`~repro.extrapolator.single.SingleGPUExtrapolator` — replay on
  one GPU (used for batch-size and cross-GPU what-ifs).
"""

from repro.extrapolator.base import Extrapolator
from repro.extrapolator.data_parallel import (
    DataParallelExtrapolator,
    DistributedDataParallelExtrapolator,
)
from repro.extrapolator.optime import OpTimeModel
from repro.extrapolator.pipeline import PipelineExtrapolator
from repro.extrapolator.single import SingleGPUExtrapolator
from repro.extrapolator.tensor_parallel import TensorParallelExtrapolator

__all__ = [
    "DataParallelExtrapolator",
    "DistributedDataParallelExtrapolator",
    "Extrapolator",
    "OpTimeModel",
    "PipelineExtrapolator",
    "SingleGPUExtrapolator",
    "TensorParallelExtrapolator",
]
