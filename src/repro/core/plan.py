"""The plan/execute split: cacheable extrapolation plans.

Extrapolating a single-GPU trace into a multi-GPU task DAG is pure graph
construction — it depends on the trace and the *parallelism* side of the
config (strategy, GPU count, batch scale, bucketing, schedules) but not on
the *scenario* side (topology, link parameters, faults, iteration count).
Sweeps, however, mostly vary the scenario side, and multi-iteration runs
re-extrapolate the identical iteration graph N times.

This module splits the pipeline accordingly:

* :class:`PlanBuilder` is the one graph builder: an extrapolator's
  :meth:`build` records into one, and so do
  :class:`~repro.core.taskgraph.TaskGraphSimulator`'s ``add_*`` methods;
* :class:`ExtrapolationPlan` is the recorded DAG — one iteration's task
  columns plus a backward dependency CSR, looked up by
  :func:`plan_key`;
* :meth:`ExtrapolationPlan.instantiate_iterations` appends the plan's
  columns to a live simulator's task store once per iteration (plus
  fence wiring), bit-identical to re-running the extrapolator per
  iteration, at a fraction of the cost;
* :class:`PlanCache` looks plans up by key — a bounded in-process LRU,
  or a sweep's whole table of prebuilt plans — so sweep points that
  differ only in network/fault parameters share one extrapolation.

The plan key deliberately *excludes* network, topology, host-link, fault,
per-GPU-slowdown, and iteration parameters: those apply at execute time.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.taskgraph import (
    BARRIER,
    COMPUTE,
    TASK_COLUMNS,
    TRANSFER,
    TaskGraphSimulator,
    intern_meta,
)
from repro.trace.trace import Trace, trace_digest

#: Config fields a plan depends on.  Everything else — topology, link
#: bandwidth/latency, routing/routing_seed, oversubscription, host link
#: parameters, gpu_slowdowns, faults, iterations, the fold knobs
#: (fold/fold_warmup/fold_tolerance) — is an execute-time concern and two
#: configs differing only there share a plan: the extrapolated task graph
#: names logical transfers, and which fabric path carries each one is
#: decided when the network executes it.
PLAN_KEY_FIELDS = (
    "parallelism", "num_gpus", "batch_size", "chunks", "dp_degree",
    "tp_scheme", "pp_schedule", "bucket_bytes", "overlap",
    "collective_scheme", "gpus_per_node", "perf_model",
    "include_host_transfers",
)


def plan_invariants(config: SimulationConfig) -> dict:
    """The plan-relevant (iteration-invariant) slice of *config*."""
    return {name: getattr(config, name) for name in PLAN_KEY_FIELDS}


def plan_key(trace: Trace, config: SimulationConfig) -> str:
    """Content key of the plan ``(trace, config)`` would build.

    *trace* must be the **prepared** trace (already cross-GPU rescaled) —
    the same object the extrapolator would consume.  Two (trace, config)
    pairs that extrapolate identically share a key.
    """
    canonical = json.dumps(
        {
            "trace": trace_digest(trace),
            "config": plan_invariants(config),
        },
        sort_keys=True,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


def edge_rows(ptr: np.ndarray) -> np.ndarray:
    """The row owning each entry of a CSR with row index *ptr*."""
    return np.repeat(np.arange(len(ptr) - 1, dtype=np.int64), np.diff(ptr))


def group_rows(keys: np.ndarray, values: np.ndarray,
               n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(ptr, grouped)``: a CSR of *values* grouped by *keys* (each in
    ``range(n)``), keeping their given order within a group."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=ptr[1:])
    return ptr, values[np.argsort(keys, kind="stable")]


def dependency_defects(dep_ptr: np.ndarray,
                       dep_idx: np.ndarray) -> List[Tuple[int, int, str]]:
    """Every entry of a backward dependency CSR that is not an earlier
    row, as ``(position, row, message)`` in position order.

    The one dependency check, reported by the verifier's DV001.  A
    forward, self or out-of-range reference would corrupt the dependent
    wiring at instantiation.
    """
    n = len(dep_ptr) - 1
    rows = edge_rows(dep_ptr)
    out = []
    for k in np.flatnonzero((dep_idx < 0) | (dep_idx >= rows)).tolist():
        row, dep = int(rows[k]), int(dep_idx[k])
        if not 0 <= dep < n:
            message = (f"dependency index {dep!r} is out of range "
                       f"(plan has {n} tasks)")
        elif dep == row:
            message = "task depends on itself"
        else:
            message = (f"dependency index {dep} points forward "
                       "(plans must reference earlier tasks)")
        out.append((k, row, message))
    return out


class PlanBuilder:
    """Records graph-construction calls as plan columns.

    ``add_compute`` / ``add_transfer`` / ``add_barrier`` each return the
    recorded row id, usable as a dependency of later rows, and schedule
    nothing: compute durations are stored *unscaled* (the per-GPU
    ``compute_scale`` applies at instantiation), and fences are inserted
    at instantiation.  Metadata is stored through
    :func:`~repro.core.taskgraph.intern_meta`: metadata equal by ``==``
    to an earlier row's is stored as that row's dict.
    """

    def __init__(self):
        self.columns: Dict[str, list] = {name: [] for name in TASK_COLUMNS}
        self._appends = [self.columns[name].append for name in TASK_COLUMNS]
        self._dep_ptr = [0]
        self._dep_idx: List[int] = []
        self._metas: Dict[tuple, dict] = {}

    def __len__(self) -> int:
        return len(self._dep_ptr) - 1

    def _record(self, kind: int, name: str, deps: Sequence[int],
                gpu: Optional[str] = None, duration: float = 0.0,
                priority: int = 0, src: Optional[str] = None,
                dst: Optional[str] = None, nbytes: float = 0.0,
                meta: Optional[dict] = None) -> int:
        (add_kind, add_name, add_gpu, add_duration, add_priority, add_src,
         add_dst, add_nbytes, add_meta) = self._appends  # TASK_COLUMNS order
        add_kind(kind)
        add_name(name)
        add_gpu(gpu)
        add_duration(duration)
        add_priority(priority)
        add_src(src)
        add_dst(dst)
        add_nbytes(nbytes)
        add_meta(intern_meta(self._metas, meta or {}))
        self._dep_idx.extend(deps)
        self._dep_ptr.append(len(self._dep_idx))
        return len(self._dep_ptr) - 2

    def add_compute(self, name: str, gpu: str, duration: float,
                    deps: Sequence[int] = (), priority: int = 0,
                    **meta) -> int:
        """A compute task of known *duration* pinned to *gpu*.

        ``priority`` breaks ties among simultaneously-ready tasks on the
        same GPU (lower first, then creation order) — how schedule
        variants like 1F1B impose their issue order.
        """
        if duration < 0:
            raise ValueError(f"task {name}: negative duration")
        return self._record(COMPUTE, name, deps, gpu=gpu,
                            duration=float(duration), priority=priority,
                            meta=meta)

    def add_transfer(self, name: str, src: str, dst: str, nbytes: float,
                     deps: Sequence[int] = (), **meta) -> int:
        """A network transfer of *nbytes* from *src* to *dst*."""
        if nbytes < 0:
            raise ValueError(f"task {name}: negative bytes")
        return self._record(TRANSFER, name, deps, src=src, dst=dst,
                            nbytes=float(nbytes), meta=meta)

    def add_barrier(self, name: str, deps: Sequence[int] = (),
                    **meta) -> int:
        """A zero-cost join node."""
        return self._record(BARRIER, name, deps, meta=meta)

    def finish(self) -> "ExtrapolationPlan":
        return ExtrapolationPlan(self.columns, self._dep_ptr, self._dep_idx)


#: What a collective records into: a plan being built, or a simulator
#: whose ``add_*`` record into its pending block.
GraphBuilder = Union[PlanBuilder, TaskGraphSimulator]


class ExtrapolationPlan:
    """One extrapolated iteration as a columnar task table, decoupled from
    any engine or network.

    Parameters
    ----------
    columns:
        The :data:`~repro.core.taskgraph.TASK_COLUMNS` as equal-length
        lists, ``kind`` as :data:`~repro.core.taskgraph.KIND_NAMES`
        codes.  ``meta`` dicts are shared with every instance: nothing
        mutates task metadata after creation.
    dep_ptr, dep_idx:
        Backward dependency CSR: row *i* depends on
        ``dep_idx[dep_ptr[i]:dep_ptr[i + 1]]``, in recorded order, each an
        earlier row.  An index outside ``range(len(dep_ptr) - 1)``
        raises :class:`ValueError` naming the row and its task; a forward
        or self reference is kept for the verifier's DV001.

    Derived from the dependency CSR: the forward CSR ``succ_ptr`` /
    ``succ_idx`` (each row's dependents in ascending order — the order
    they were recorded in, so the release walk follows program order),
    ``indegree``, ``roots``, ``terminal_ids`` and ``uniform_priority``.
    """

    def __init__(self, columns: Dict[str, list], dep_ptr: Sequence[int],
                 dep_idx: Sequence[int]):
        self.columns = columns
        self.dep_ptr = np.asarray(dep_ptr, dtype=np.int64)
        self.dep_idx = np.asarray(dep_idx, dtype=np.int64)
        counts = np.diff(self.dep_ptr)
        outside = (self.dep_idx < 0) | (self.dep_idx >= len(counts))
        if outside.any():
            _, row, message = next(
                defect for defect in dependency_defects(self.dep_ptr,
                                                        self.dep_idx)
                if outside[defect[0]])
            raise ValueError(f"task {columns['name'][row]!r} (row {row}): "
                             f"{message}")
        self.succ_ptr, self.succ_idx = group_rows(
            self.dep_idx, edge_rows(self.dep_ptr), len(counts))
        self.indegree: List[int] = counts.tolist()
        self.roots: List[int] = np.flatnonzero(counts == 0).tolist()
        #: Rows with no dependents within the plan — what an
        #: inter-iteration fence must wait on, in creation order.
        self.terminal_ids: Tuple[int, ...] = tuple(
            np.flatnonzero(np.diff(self.succ_ptr) == 0).tolist())
        #: Whether every row has priority 0.
        self.uniform_priority = not any(columns["priority"])

    def __len__(self) -> int:
        return len(self.columns["kind"])

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def instantiate_iterations(self, sim: TaskGraphSimulator, count: int,
                               start: int = 0) -> None:
        """Append *count* consecutive training iterations to *sim*.

        The one instancing method, shared by the exact path, each folded
        warm-up iteration, and the not-steady fallback: every iteration
        numbered ``>= 1`` is preceded by an inter-iteration fence named
        ``iteration{i}`` that waits on the previous iteration's
        terminals (numbering continues from *start*, so a continuation
        span keeps the fence names the all-upfront build would have
        used).  A span's first fence has no terminals to wait on and
        falls back to the previous fence — on an already-drained
        graph the continuation then replays the schedule the all-upfront
        build would have produced, at the same virtual times.

        Per-GPU ``compute_scale`` applies to compute durations and task
        ids continue *sim*'s rows, so a cold build and an instanced plan
        simulate bit-identically.
        """
        sim._append_iterations(self, count, start)


class PlanCache:
    """In-process :class:`ExtrapolationPlan` entries by :func:`plan_key`.

    ``PlanCache()`` is a bounded LRU.  ``PlanCache(plans)`` serves the
    ``{plan_key: plan}`` table *plans* in place and never evicts from it:
    a sweep builds its plans once, up front, and every point looks its
    plan up there, however many distinct keys the sweep has.
    """

    #: Plans an LRU keeps; plans are large (one row per task), so the
    #: bound stays small and the least recently used plan is dropped
    #: beyond it.
    MAX_ENTRIES = 8

    def __init__(self, plans: Optional[Dict[str, ExtrapolationPlan]] = None):
        self._lru = plans is None
        self._plans = OrderedDict() if plans is None else plans

    def get_or_build(self, key: str,
                     build: Callable[[], ExtrapolationPlan]
                     ) -> Tuple[ExtrapolationPlan, str]:
        """The plan for *key*, building (and caching) it on a miss.

        Returns ``(plan, source)`` with source ``"memory"`` or
        ``"built"``.
        """
        plans = self._plans
        plan = plans.get(key)
        if plan is not None:
            if self._lru:
                plans.move_to_end(key)
            return plan, "memory"
        plan = plans[key] = build()
        while self._lru and len(plans) > self.MAX_ENTRIES:
            plans.popitem(last=False)
        return plan, "built"
