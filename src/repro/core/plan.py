"""The plan/execute split: cacheable extrapolation plans.

Extrapolating a single-GPU trace into a multi-GPU task DAG is pure graph
construction — it depends on the trace and the *parallelism* side of the
config (strategy, GPU count, batch scale, bucketing, schedules) but not on
the *scenario* side (topology, link parameters, faults, iteration count).
Sweeps, however, mostly vary the scenario side, and multi-iteration runs
re-extrapolate the identical iteration graph N times.

This module splits the pipeline accordingly:

* :class:`PlanBuilder` duck-types the graph-construction surface of
  :class:`~repro.core.taskgraph.TaskGraphSimulator`, so any extrapolator's
  :meth:`build` records into a plan instead of a live simulator;
* :class:`ExtrapolationPlan` is the recorded DAG — one iteration's task
  columns plus a backward dependency CSR, content-keyed by
  :func:`plan_key`;
* :meth:`ExtrapolationPlan.instantiate_iterations` appends the plan's
  columns to a live simulator's task store once per iteration (plus
  fence wiring), bit-identical to running the extrapolator directly, at
  a fraction of the cost;
* :class:`PlanCache` is a bounded in-process LRU with optional
  content-addressed on-disk persistence, so sweep points that differ only
  in network/fault parameters — and repeat sweeps, and pool workers —
  share one extrapolation.

The plan key deliberately *excludes* network, topology, host-link, fault,
per-GPU-slowdown, and iteration parameters: those apply at execute time.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time as _wall
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.taskgraph import (
    BARRIER,
    COMPUTE,
    KIND_NAMES,
    TASK_COLUMNS,
    TRANSFER,
    TaskGraphSimulator,
    intern_meta,
)
from repro.trace.trace import Trace, trace_digest

#: Bumped whenever the serialized plan format (or the meaning of a plan
#: key) changes; part of every key, so stale persisted plans are never
#: loaded across format changes.
PLAN_SCHEMA_VERSION = 2

#: Config fields a plan depends on.  Everything else — topology, link
#: bandwidth/latency, routing/routing_seed, oversubscription, host link
#: parameters, gpu_slowdowns, faults, iterations, the fold knobs
#: (fold/fold_warmup/fold_tolerance), network_factory — is an
#: execute-time concern and two configs differing only there share a
#: plan: the extrapolated task graph names logical transfers, and which
#: fabric path carries each one is decided when the network executes it.
PLAN_KEY_FIELDS = (
    "parallelism", "num_gpus", "batch_size", "chunks", "dp_degree",
    "tp_scheme", "pp_schedule", "bucket_bytes", "overlap",
    "collective_scheme", "gpus_per_node", "perf_model",
    "include_host_transfers",
)


class PlanKeyMismatch(ValueError):
    """A pre-built plan was executed under a config it was not built for."""


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
            "plan_schema": PLAN_SCHEMA_VERSION,
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

    The one dependency check: :meth:`ExtrapolationPlan.from_dict` rejects
    the first defect and the verifier's DV001 reports them all.  A
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


def _int_array(values: object, what: str) -> np.ndarray:
    """A JSON list of ints as int64; anything else raises ValueError (a
    float, string or bool entry would otherwise be coerced)."""
    if not isinstance(values, list):
        raise ValueError(f"plan {what} list is missing")
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"invalid {what} {bad!r} (expected an integer)")
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        raise ValueError(f"invalid {what}: beyond the 64-bit range") from None


class PlanBuilder:
    """Records an extrapolator's graph-construction calls as plan columns.

    Exposes the same ``add_compute`` / ``add_transfer`` / ``add_barrier``
    surface as :class:`~repro.core.taskgraph.TaskGraphSimulator`, each
    returning the recorded row id (an opaque handle, usable as a
    dependency), but schedules nothing: compute durations are stored
    *unscaled* (the per-GPU ``compute_scale`` applies at instantiation),
    and fences are an execute-time concern (:meth:`fence` raises).
    Metadata is stored through :func:`~repro.core.taskgraph.intern_meta`:
    metadata equal by ``==`` to an earlier row's is stored as that row's
    dict.
    """

    def __init__(self):
        self.columns: Dict[str, list] = {name: [] for name in TASK_COLUMNS}
        self._appends = [self.columns[name].append for name in TASK_COLUMNS]
        self._dep_ptr = [0]
        self._dep_idx: List[int] = []
        self._metas: Dict[tuple, dict] = {}

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
        if duration < 0:
            raise ValueError(f"task {name}: negative duration")
        return self._record(COMPUTE, name, deps, gpu=gpu,
                            duration=float(duration), priority=priority,
                            meta=meta)

    def add_transfer(self, name: str, src: str, dst: str, nbytes: float,
                     deps: Sequence[int] = (), **meta) -> int:
        if nbytes < 0:
            raise ValueError(f"task {name}: negative bytes")
        return self._record(TRANSFER, name, deps, src=src, dst=dst,
                            nbytes=float(nbytes), meta=meta)

    def add_barrier(self, name: str, deps: Sequence[int] = (),
                    **meta) -> int:
        return self._record(BARRIER, name, deps, meta=meta)

    def fence(self, name: str = "fence") -> int:
        raise RuntimeError(
            "plans capture one iteration; fences are inserted at "
            "instantiation time (extrapolators must not call fence)"
        )

    def finish(self, key: str, build_wall: float = 0.0) -> "ExtrapolationPlan":
        return ExtrapolationPlan(self.columns, self._dep_ptr, self._dep_idx,
                                 key, build_wall=build_wall)


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
        earlier row.
    key:
        The :func:`plan_key` this plan was built under.
    build_wall:
        Wall seconds the recording build took (profiler bookkeeping).

    Derived from the dependency CSR: the forward CSR ``succ_ptr`` /
    ``succ_idx`` (each row's dependents in ascending order — the order
    they were recorded in, so the release walk follows program order),
    ``indegree``, ``roots``, ``terminal_ids`` and ``uniform_priority``.
    """

    def __init__(self, columns: Dict[str, list], dep_ptr: Sequence[int],
                 dep_idx: Sequence[int], key: str, build_wall: float = 0.0):
        self.columns = columns
        self.dep_ptr = np.asarray(dep_ptr, dtype=np.int64)
        self.dep_idx = np.asarray(dep_idx, dtype=np.int64)
        self.key = key
        self.build_wall = build_wall
        counts = np.diff(self.dep_ptr)
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
        falls back to the previous fence (see
        :meth:`TaskGraphSimulator.fence_from`) — on an already-drained
        graph the continuation then replays the schedule the all-upfront
        build would have produced, at the same virtual times.

        Semantically identical to running the extrapolator's
        ``build(sim)`` once per iteration with fences in between: per-GPU
        ``compute_scale`` applies to compute durations and task ids
        continue *sim*'s rows, so a cold build and an instanced plan
        simulate bit-identically.
        """
        sim._append_iterations(self, count, start)

    # ------------------------------------------------------------------
    # Serialization (the on-disk persistence format)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": PLAN_SCHEMA_VERSION,
            "key": self.key,
            "columns": {name: list(self.columns[name])
                        for name in TASK_COLUMNS},
            "dep_ptr": self.dep_ptr.tolist(),
            "dep_idx": self.dep_idx.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExtrapolationPlan":
        """Load a serialized plan.  Malformed input raises ``ValueError``,
        which puts a corrupt persisted plan on :meth:`PlanCache.get`'s
        drop-and-rebuild path instead of into a simulation."""
        if not isinstance(data, dict):
            raise ValueError("a plan is a JSON object")
        version = data.get("schema_version")
        if version != PLAN_SCHEMA_VERSION:
            raise ValueError(f"unsupported plan schema version {version}")
        key, columns = data.get("key"), data.get("columns")
        if not isinstance(key, str) or not isinstance(columns, dict):
            raise ValueError("plan needs a string key and a columns table")
        missing = [name for name in TASK_COLUMNS
                   if not isinstance(columns.get(name), list)]
        if missing:
            raise ValueError(f"plan columns missing: {missing}")
        n = len(columns["kind"])
        uneven = [name for name in TASK_COLUMNS if len(columns[name]) != n]
        if uneven:
            raise ValueError(f"plan columns {uneven} do not have {n} rows")
        kinds = _int_array(columns["kind"], "kind code")
        unknown = np.flatnonzero((kinds < 0) | (kinds >= len(KIND_NAMES)))
        if unknown.size:
            row = int(unknown[0])
            raise ValueError(f"plan row {row} has unknown kind code "
                             f"{columns['kind'][row]!r}")
        dep_ptr = _int_array(data.get("dep_ptr"), "dep_ptr entry")
        dep_idx = _int_array(data.get("dep_idx"), "dependency index")
        if (len(dep_ptr) != n + 1 or dep_ptr[0] != 0
                or dep_ptr[-1] != len(dep_idx) or np.any(np.diff(dep_ptr) < 0)):
            raise ValueError("plan dep_ptr is not a row index over dep_idx")
        defects = dependency_defects(dep_ptr, dep_idx)
        if defects:
            k, row, _ = defects[0]
            raise ValueError(
                f"plan row {row} ({columns['name'][row]!r}) has an invalid "
                f"dependency index {data['dep_idx'][k]!r}: dependencies "
                "must reference earlier rows")
        return cls({name: columns[name] for name in TASK_COLUMNS},
                   dep_ptr, dep_idx, key)

    def to_json(self) -> str:
        """Serialize to JSON (floats round-trip bit-exactly)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "ExtrapolationPlan":
        return cls.from_dict(json.loads(text))


class PlanCache:
    """Bounded LRU of :class:`ExtrapolationPlan` entries, optionally
    persisted to a content-addressed directory.

    Parameters
    ----------
    root:
        Optional directory for on-disk persistence (created on first
        store).  With a root, plans survive process boundaries: pool
        workers and repeat sweeps load instead of re-extrapolating.
    max_entries:
        In-memory LRU bound; plans are large (one entry per task), so the
        default stays small.
    """

    def __init__(self, root: Union[str, Path, None] = None,
                 max_entries: int = 8):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.root = Path(root) if root is not None else None
        self.max_entries = max_entries
        self._mem: "OrderedDict[str, ExtrapolationPlan]" = OrderedDict()
        self.memory_hits = 0
        self.disk_hits = 0
        self.builds = 0

    def _path(self, key: str) -> Path:
        assert self.root is not None
        return self.root / f"{key}.plan.json"

    def get(self, key: str) -> Optional[ExtrapolationPlan]:
        """The cached plan for *key* from memory then disk, or ``None``."""
        plan = self._mem.get(key)
        if plan is not None:
            self._mem.move_to_end(key)
            self.memory_hits += 1
            return plan
        if self.root is not None:
            try:
                text = self._path(key).read_text()
            except OSError:
                return None
            try:
                plan = ExtrapolationPlan.from_json(text)
            except (ValueError, KeyError, IndexError):
                # Corrupt or stale-schema entry: drop it, treat as a miss.
                try:
                    self._path(key).unlink()
                except OSError:
                    pass
                return None
            if plan.key != key:
                return None  # content/key mismatch: never trust it
            self.disk_hits += 1
            self._remember(key, plan)
            return plan
        return None

    def put(self, key: str, plan: ExtrapolationPlan) -> None:
        """Cache *plan* under *key* in memory and (if rooted) on disk."""
        if plan.key != key:
            raise PlanKeyMismatch(
                f"plan keyed {plan.key[:12]}… cannot be stored as {key[:12]}…"
            )
        self._remember(key, plan)
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(plan.to_json())
                os.replace(tmp, self._path(key))
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise

    def _remember(self, key: str, plan: ExtrapolationPlan) -> None:
        self._mem[key] = plan
        self._mem.move_to_end(key)
        while len(self._mem) > self.max_entries:
            self._mem.popitem(last=False)

    def get_or_build(self, key: str,
                     build: Callable[[], ExtrapolationPlan]
                     ) -> Tuple[ExtrapolationPlan, str]:
        """The plan for *key*, building (and caching) on a miss.

        Returns ``(plan, source)`` with source one of ``"memory"``,
        ``"disk"``, or ``"built"``.
        """
        before_disk = self.disk_hits
        plan = self.get(key)
        if plan is not None:
            return plan, ("disk" if self.disk_hits > before_disk
                          else "memory")
        started = _wall.perf_counter()
        plan = build()
        plan.build_wall = _wall.perf_counter() - started
        self.builds += 1
        self.put(key, plan)
        return plan, "built"

    def __len__(self) -> int:
        return len(self._mem)

    def stats(self) -> Dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "disk_hits": self.disk_hits,
            "builds": self.builds,
            "entries": len(self._mem),
        }
