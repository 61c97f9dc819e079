"""A normalized, analysis-friendly view of an extrapolation plan.

:meth:`GraphView.from_plan` lowers an
:class:`~repro.core.plan.ExtrapolationPlan` into parallel per-task arrays
with *both* edge directions materialized (every whole-graph algorithm
here needs both).  Malformed dependency references become DV001 defects
instead of edges, so every edge runs from an earlier row to a later one
and row order is a topological order.

On top of the view sit the whole-graph algorithms the DV rules share:
dependency levels, critical-path / slack analysis, and the static
per-GPU transfer-footprint bound — each a walk over rows in order.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.plan import dependency_defects, edge_rows, group_rows
from repro.core.taskgraph import KIND_NAMES


class CriticalPath:
    """Result of the forward/backward critical-path sweep.

    Attributes
    ----------
    length:
        Critical-path length in seconds under the static cost model.
    slack:
        Per-task slack (seconds the task can slip without moving the
        critical path); ``0.0`` for tasks on the path.
    path:
        Indices of one critical path, in dependency order.
    """

    __slots__ = ("length", "slack", "path")

    def __init__(self, length: float, slack: List[float], path: List[int]):
        self.length = length
        self.slack = slack
        self.path = path

    def is_critical(self, index: int) -> bool:
        tolerance = max(1e-12, self.length * 1e-9)
        return self.slack[index] <= tolerance


class GraphView:
    """Immutable per-task arrays plus derived whole-graph algorithms."""

    __slots__ = ("n", "names", "kinds", "gpus", "durations", "srcs", "dsts",
                 "nbytes", "metas", "deps", "dependents", "defects")

    def __init__(self, columns: Dict[str, list], succ_ptr: np.ndarray,
                 succ_idx: np.ndarray,
                 defects: List[Tuple[int, str]]) -> None:
        n = self.n = len(succ_ptr) - 1
        kinds = dict(enumerate(KIND_NAMES))
        self.names: List[str] = list(columns["name"])
        self.kinds: List[str] = [kinds.get(k, k) for k in columns["kind"]]
        self.gpus: List[Optional[str]] = list(columns["gpu"])
        self.durations: List[float] = list(columns["duration"])
        self.srcs: List[Optional[str]] = list(columns["src"])
        self.dsts: List[Optional[str]] = list(columns["dst"])
        self.nbytes: List[float] = list(columns["nbytes"])
        self.metas: List[dict] = list(columns["meta"])
        #: Structural defects found while lowering (dangling/forward/self
        #: dependency references) as ``(index, message)`` — DV001 input.
        self.defects = defects
        bounds = succ_ptr.tolist()
        targets = succ_idx.tolist()
        self.dependents: List[List[int]] = [
            targets[bounds[i]:bounds[i + 1]] for i in range(n)]
        dep_ptr, dep_idx = group_rows(succ_idx, edge_rows(succ_ptr), n)
        bounds = dep_ptr.tolist()
        sources = dep_idx.tolist()
        self.deps: List[List[int]] = [
            sources[bounds[i]:bounds[i + 1]] for i in range(n)]

    @classmethod
    def from_plan(cls, plan: Any) -> "GraphView":
        """Lower an :class:`~repro.core.plan.ExtrapolationPlan`.

        Edges are its well-formed dependencies; each forward, self or
        out-of-range index is a defect instead (see
        :func:`~repro.core.plan.dependency_defects`), so every edge runs
        from an earlier row to a later one.
        """
        n = len(plan)
        defects = dependency_defects(plan.dep_ptr, plan.dep_idx)
        keep = np.ones(len(plan.dep_idx), dtype=bool)
        keep[[k for k, _, _ in defects]] = False
        succ_ptr, succ_idx = group_rows(
            plan.dep_idx[keep], edge_rows(plan.dep_ptr)[keep], n)
        return cls(plan.columns, succ_ptr, succ_idx,
                   [(row, message) for _, row, message in defects])

    # ------------------------------------------------------------------
    # Timing analysis
    # ------------------------------------------------------------------
    def costs(self, config: Optional[SimulationConfig] = None) -> List[float]:
        """Static per-task cost model (seconds), ignoring contention.

        Compute costs come from the recorded durations; transfer costs
        assume an uncontended direct link (``latency + bytes /
        bandwidth``) when *config* provides link parameters, else zero;
        barriers are free.  This is a bound for slack/critical-path
        *annotation*, not a prediction — the simulation itself remains
        the predictor.
        """
        bandwidth = float(getattr(config, "link_bandwidth", 0.0) or 0.0)
        latency = float(getattr(config, "link_latency", 0.0) or 0.0)
        out: List[float] = []
        for index in range(self.n):
            kind = self.kinds[index]
            if kind == "compute":
                out.append(max(self.durations[index], 0.0))
            elif kind == "transfer" and bandwidth > 0.0:
                out.append(latency + max(self.nbytes[index], 0.0) / bandwidth)
            else:
                out.append(0.0)
        return out

    def critical_path(self, config: Optional[SimulationConfig] = None
                      ) -> CriticalPath:
        """Critical-path length, per-task slack, and one witness path.

        Row order is topological (every edge runs from an earlier row),
        so one forward and one backward pass over the rows suffice.
        """
        costs = self.costs(config)
        earliest = [0.0] * self.n
        argmax = [-1] * self.n
        for index in range(self.n):
            best, best_dep = 0.0, -1
            for dep in self.deps[index]:
                if earliest[dep] > best:
                    best, best_dep = earliest[dep], dep
            earliest[index] = best + costs[index]
            argmax[index] = best_dep
        length = max(earliest, default=0.0)
        latest = [length] * self.n
        for index in reversed(range(self.n)):
            bound = length
            for target in self.dependents[index]:
                start = latest[target] - costs[target]
                if start < bound:
                    bound = start
            latest[index] = bound
        slack = [max(late - early, 0.0)
                 for late, early in zip(latest, earliest)]
        path: List[int] = []
        if self.n:
            tail = max(range(self.n), key=earliest.__getitem__)
            while tail >= 0:
                path.append(tail)
                tail = argmax[tail]
            path.reverse()
        return CriticalPath(length, slack, path)

    # ------------------------------------------------------------------
    # Static memory bound
    # ------------------------------------------------------------------
    def levels(self) -> List[int]:
        """Dependency depth of every task (roots at 0)."""
        level = [0] * self.n
        for index in range(self.n):
            level[index] = max((level[dep] + 1 for dep in self.deps[index]),
                               default=0)
        return level

    def peak_transfer_bytes(self) -> Dict[str, float]:
        """Static per-GPU peak of simultaneously-live transfer buffers.

        A transfer's destination buffer is conservatively considered
        live from the transfer's dependency level until the deepest
        level of its direct dependents (when the consumers have read
        it).  The per-GPU maximum over levels bounds the transfer
        working set; it deliberately ignores weights/activations (the
        memory estimator's domain) — this catches graphs whose
        *communication staging* alone cannot fit.
        """
        level = self.levels()
        deltas: Dict[str, Dict[int, float]] = {}
        for index in range(self.n):
            if self.kinds[index] != "transfer":
                continue
            gpu = self.dsts[index]
            if gpu is None:
                continue
            start = level[index]
            end = start
            for target in self.dependents[index]:
                if level[target] > end:
                    end = level[target]
            per_gpu = deltas.setdefault(gpu, {})
            per_gpu[start] = per_gpu.get(start, 0.0) + self.nbytes[index]
            per_gpu[end + 1] = per_gpu.get(end + 1, 0.0) - self.nbytes[index]
        peaks: Dict[str, float] = {}
        for gpu, per_gpu in deltas.items():
            running = 0.0
            peak = 0.0
            for boundary in sorted(per_gpu):
                running += per_gpu[boundary]
                if running > peak:
                    peak = running
            peaks[gpu] = peak
        return peaks

    # ------------------------------------------------------------------
    # Summary
    # ------------------------------------------------------------------
    def kind_counts(self) -> Dict[str, int]:
        counts = dict.fromkeys(KIND_NAMES, 0)
        for kind in self.kinds:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def summary(self, config: Optional[SimulationConfig] = None) -> dict:
        """Whole-graph annotation block: sizes, critical path, peaks.

        Every key is present, zero where the graph has nothing to
        measure (no transfers on one GPU, no path in an empty plan).
        """
        out: dict = {"tasks": self.n}
        out.update(self.kind_counts())
        critical = self.critical_path(config)
        out["critical_path_s"] = critical.length
        out["critical_tasks"] = len(critical.path)
        out["peak_transfer_bytes"] = max(
            self.peak_transfer_bytes().values(), default=0)
        return out


def collective_groups(view: GraphView) -> Dict[str, List[int]]:
    """Transfer indices grouped by their ``meta['collective']`` tag, in
    creation order — the unit of DV004's cross-rank matching."""
    groups: Dict[str, List[int]] = {}
    for index in range(view.n):
        if view.kinds[index] != "transfer":
            continue
        tag = view.metas[index].get("collective")
        if isinstance(tag, str) and tag:
            groups.setdefault(tag, []).append(index)
    return groups


def _union_find_components(members: Sequence[str],
                           edges: Sequence[Tuple[str, str]]) -> int:
    parent = {m: m for m in members}

    def find(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    return len({find(m) for m in members})


def collective_components(view: GraphView, indices: Sequence[int]) -> int:
    """Weakly-connected component count of one collective's participant
    graph (a split collective — ranks exchanging in disjoint islands
    under one tag — would deadlock the real collective)."""
    members = set()
    edges = []
    for index in indices:
        src, dst = view.srcs[index], view.dsts[index]
        if src is None or dst is None:
            continue
        members.add(src)
        members.add(dst)
        edges.append((src, dst))
    if not members:
        return 0
    return _union_find_components(sorted(members), edges)
