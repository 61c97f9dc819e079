"""Extrapolator base class.

An extrapolator owns the conversion of one single-GPU trace into a task
DAG for one parallelism strategy.  Subclasses implement :meth:`build`;
shared helpers cover per-GPU operator chains and host input fetches.

Builds record into a :class:`~repro.core.plan.PlanBuilder`, whose
``add_compute`` / ``add_transfer`` / ``add_barrier`` return row ids used
as dependencies of later rows; the recorded plan is cached and instanced
once per iteration (:mod:`repro.core.plan`).  A build must therefore be a
*pure function of the extrapolator's inputs*: emit tasks in
deterministic program order and only pass row ids back as dependencies
(iteration boundaries are inserted at instantiation).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.core.plan import PlanBuilder
from repro.extrapolator.optime import OpTimeModel
from repro.network.topology import gpu_names
from repro.trace.records import OperatorRecord
from repro.trace.trace import Trace


class Extrapolator(ABC):
    """Converts a single-GPU trace into a multi-GPU task DAG.

    Parameters
    ----------
    trace:
        The single-GPU input trace.
    op_time:
        Operator-duration resolver (trace times + Li's Model scaling).
    num_gpus:
        Number of simulated GPUs.
    """

    #: Name of the host (CPU memory) node when input fetches are modelled.
    HOST = "host"

    def __init__(self, trace: Trace, op_time: OpTimeModel, num_gpus: int):
        if num_gpus < 1:
            raise ValueError("num_gpus must be >= 1")
        self.trace = trace
        self.op_time = op_time
        self.num_gpus = num_gpus
        self.gpus = gpu_names(num_gpus)
        #: When True (set by TrioSim from the config), builds insert a
        #: host -> GPU transfer of the input batch before the forward
        #: pass — the paper's "CPU to GPU data movement".
        self.fetch_inputs = False

    @abstractmethod
    def build(self, sim: PlanBuilder) -> None:
        """Record the tasks of one training iteration into *sim*.

        Implementations must honour the purity contract in the module
        docstring so recorded plans replay bit-identically.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def chain_ops(self, sim: PlanBuilder, gpu: str,
                  ops: Sequence[OperatorRecord], deps: Sequence[int] = (),
                  batch_scale: float = 1.0, shard: int = 1,
                  name_suffix: str = "", priority: int = 0) -> List[int]:
        """Sequentially chain *ops* on *gpu*; returns all created tasks.

        The first op depends on *deps*; each next op depends on the
        previous one (program order within a stream).
        """
        tasks: List[int] = []
        prev: Sequence[int] = deps
        for op in ops:
            duration = self.op_time.duration(op, batch_scale, shard)
            task = sim.add_compute(
                f"{gpu}:{op.name}{name_suffix}",
                gpu,
                duration,
                deps=prev,
                priority=priority,
                phase=op.phase,
                layer=op.layer,
            )
            tasks.append(task)
            prev = [task]
        return tasks

    def input_bytes(self, batch_scale: float = 1.0) -> float:
        """Size of the model's input batch at the simulated scale."""
        return batch_scale * sum(
            t.nbytes for t in self.trace.tensors.values()
            if t.category == "input"
        )

    def add_input_fetch(self, sim: PlanBuilder, gpu: str,
                        batch_scale: float = 1.0, fraction: float = 1.0,
                        deps: Sequence[int] = (),
                        tag: str = "") -> List[int]:
        """Insert the host -> *gpu* input transfer when enabled.

        ``fraction`` scales the payload (a micro-batch or a data-parallel
        shard).  Returns an empty list when input fetching is off, so
        callers can splice the result straight into a deps list.
        """
        if not self.fetch_inputs:
            return []
        nbytes = self.input_bytes(batch_scale) * fraction
        task = sim.add_transfer(
            f"h2d:{gpu}{tag}", self.HOST, gpu, nbytes, deps=deps,
            phase="forward",
        )
        return [task]

