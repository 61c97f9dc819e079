"""Extrapolator base class.

An extrapolator owns the conversion of one single-GPU trace into a task
DAG for one parallelism strategy.  Subclasses implement :meth:`build`;
shared helpers cover per-GPU operator chains and placement bookkeeping.

Builds target a **graph builder**, not necessarily a live simulator: any
object exposing ``add_compute`` / ``add_transfer`` / ``add_barrier`` with
:class:`~repro.core.taskgraph.TaskGraphSimulator`'s signatures, whose
return values are opaque dependency handles (a :class:`PlanBuilder` hands
out row ids).  The plan/execute split (:mod:`repro.core.plan`) relies on
this: the same ``build`` records into a
:class:`~repro.core.plan.PlanBuilder` to produce a cacheable plan.  A
build must therefore be a *pure function of the extrapolator's inputs*:
emit tasks in deterministic program order, only pass handles back as
dependencies, and never call ``fence`` (iteration boundaries are an
execute-time concern).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Sequence

from repro.core.taskgraph import SimTask, TaskGraphSimulator
from repro.extrapolator.optime import OpTimeModel
from repro.memory.tensor_store import TensorStore
from repro.network.topology import gpu_names
from repro.trace.records import OperatorRecord
from repro.trace.trace import Trace

#: The structural type extrapolators build into — a live
#: :class:`TaskGraphSimulator` or a recording
#: :class:`~repro.core.plan.PlanBuilder`.  (An alias, not a Protocol, to
#: keep the annotation surface compatible with Python 3.9.)
GraphBuilder = TaskGraphSimulator


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
        self.store = TensorStore()
        #: When True (set by TrioSim from the config), builds insert a
        #: host -> GPU transfer of the input batch before the forward
        #: pass — the paper's "CPU to GPU data movement".
        self.fetch_inputs = False

    @abstractmethod
    def build(self, sim: TaskGraphSimulator) -> None:
        """Populate *sim* with the tasks of one training iteration.

        *sim* may be any :data:`GraphBuilder` — a live simulator or a
        plan recorder; implementations must honour the purity contract
        in the module docstring so recorded plans replay bit-identically.
        """

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def chain_ops(self, sim: TaskGraphSimulator, gpu: str,
                  ops: Sequence[OperatorRecord], deps: Sequence[SimTask] = (),
                  batch_scale: float = 1.0, shard: int = 1,
                  name_suffix: str = "", priority: int = 0) -> List[SimTask]:
        """Sequentially chain *ops* on *gpu*; returns all created tasks.

        The first op depends on *deps*; each next op depends on the
        previous one (program order within a stream).
        """
        tasks: List[SimTask] = []
        prev: Sequence[SimTask] = deps
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

    def add_input_fetch(self, sim: TaskGraphSimulator, gpu: str,
                        batch_scale: float = 1.0, fraction: float = 1.0,
                        deps: Sequence[SimTask] = (),
                        tag: str = "") -> List[SimTask]:
        """Insert the host -> *gpu* input transfer when enabled.

        ``fraction`` scales the payload (a micro-batch or a data-parallel
        shard).  Returns an empty list when input fetching is off, so
        callers can splice the result straight into a deps list.
        """
        if not self.fetch_inputs:
            return []
        nbytes = self.input_bytes(batch_scale) * fraction
        for tensor in self.trace.tensors.values():
            if tensor.category == "input":
                self.store.place(tensor.tensor_id, self.HOST, tensor.nbytes)
        task = sim.add_transfer(
            f"h2d:{gpu}{tag}", self.HOST, gpu, nbytes, deps=deps,
            phase="forward",
        )
        return [task]

    def place_replicated_weights(self) -> None:
        """Mark every weight tensor resident on every GPU (replicated
        setups: DDP keeps per-process replicas created at init time)."""
        for tensor in self.trace.weight_tensors():
            for gpu in self.gpus:
                self.store.place(tensor.tensor_id, gpu, tensor.nbytes)

    def place_weights_on_root(self, root: str = "gpu0") -> None:
        """Mark weights resident only on the root (threaded DataParallel
        re-replicates the module from GPU 0 every iteration)."""
        for tensor in self.trace.weight_tensors():
            self.store.place(tensor.tensor_id, root, tensor.nbytes)
