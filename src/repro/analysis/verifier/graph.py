"""A normalized, analysis-friendly view of an execution DAG.

Both inputs the deep verifier accepts — a live (not yet run)
:class:`~repro.core.taskgraph.TaskGraphSimulator` and a recorded
:class:`~repro.core.plan.ExtrapolationPlan` — are lowered by one routine
into the same :class:`GraphView`: parallel per-task arrays with *both*
edge directions materialized (every whole-graph algorithm here needs
both), from the task columns, a successor CSR, the declared dependency
counts and the done flags.

On top of the view sit the whole-graph algorithms the DV rules share:
Kahn reachability, SCC cycle extraction, dependency levels, critical-path
/ slack analysis, and the static per-GPU transfer-footprint bound.
:meth:`GraphView.cycles` is the repo's only cycle detector.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import SimulationConfig
from repro.core.plan import dependency_defects, edge_rows, group_rows
from repro.core.taskgraph import KIND_NAMES, TASK_COLUMNS


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

    __slots__ = ("n", "source", "names", "kinds", "gpus", "durations",
                 "srcs", "dsts", "nbytes", "metas", "deps", "dependents",
                 "declared", "done", "defects", "_order", "_stuck")

    def __init__(self, source: str, columns: Dict[str, list],
                 succ_ptr: np.ndarray, succ_idx: np.ndarray,
                 declared: Sequence[int], done: Sequence[bool],
                 defects: List[Tuple[int, str]]) -> None:
        """The one lowering, shared by :meth:`from_plan` and
        :meth:`from_simulator`: task columns, the successor CSR of the
        well-formed edges, declared dependency counts and done flags."""
        self.source = source
        n = self.n = len(declared)
        kinds = dict(enumerate(KIND_NAMES))
        self.names: List[str] = list(columns["name"])
        self.kinds: List[str] = [kinds.get(k, k) for k in columns["kind"]]
        self.gpus: List[Optional[str]] = list(columns["gpu"])
        self.durations: List[float] = list(columns["duration"])
        self.srcs: List[Optional[str]] = list(columns["src"])
        self.dsts: List[Optional[str]] = list(columns["dst"])
        self.nbytes: List[float] = list(columns["nbytes"])
        self.metas: List[dict] = list(columns["meta"])
        self.declared: List[int] = list(declared)
        self.done: List[bool] = list(done)
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
        self._order: Optional[List[int]] = None
        self._stuck: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_plan(cls, plan: Any) -> "GraphView":
        """Lower an :class:`~repro.core.plan.ExtrapolationPlan`.

        Edges are its well-formed dependencies; each forward, self or
        out-of-range index is a defect instead (see
        :func:`~repro.core.plan.dependency_defects`).  ``declared`` counts
        every recorded dependency, malformed ones included.
        """
        n = len(plan)
        defects = dependency_defects(plan.dep_ptr, plan.dep_idx)
        keep = np.ones(len(plan.dep_idx), dtype=bool)
        keep[[k for k, _, _ in defects]] = False
        succ_ptr, succ_idx = group_rows(
            plan.dep_idx[keep], edge_rows(plan.dep_ptr)[keep], n)
        return cls("plan", plan.columns, succ_ptr, succ_idx,
                   np.diff(plan.dep_ptr).tolist(), [False] * n,
                   [(row, message) for _, row, message in defects])

    @classmethod
    def from_simulator(cls, sim: Any) -> "GraphView":
        """Lower a live :class:`~repro.core.taskgraph.TaskGraphSimulator`
        by reading its task store's columns.

        Edges are the rows' successors (a plan iteration's CSR plus the
        per-row ``succ`` lists), so fences appear as terminals→fence and
        fence→next-iteration-root edges; ``declared`` is the
        ``indegree`` counter the scheduler will decrement.
        """
        store = sim.store
        n = len(store)
        lists = [store.successors(index) for index in range(n)]
        sources = np.repeat(np.arange(n, dtype=np.int64),
                            [len(targets) for targets in lists])
        targets = np.fromiter(chain.from_iterable(lists), dtype=np.int64,
                              count=len(sources))
        bad = (targets < 0) | (targets >= n) | (targets == sources)
        defects = [
            (row, "task depends on itself" if target == row else
             f"successor {target!r} is not a row of this simulator "
             f"({n} rows)")
            for row, target in zip(sources[bad].tolist(),
                                   targets[bad].tolist())]
        succ_ptr, succ_idx = group_rows(sources[~bad], targets[~bad], n)
        return cls("taskgraph",
                   {name: getattr(store, name) for name in TASK_COLUMNS},
                   succ_ptr, succ_idx, store.indegree,
                   [end is not None for end in store.end], defects)

    # ------------------------------------------------------------------
    # Reachability / cycles
    # ------------------------------------------------------------------
    def _kahn(self) -> Tuple[List[int], List[int]]:
        """Topological order over live tasks; cached.

        Returns ``(order, stuck)`` — *stuck* tasks sit on or behind a
        dependency cycle.  Edge in-degrees are used (not the declared
        counters), so this answers "is the graph a DAG" independently of
        counter corruption (DV003's concern).
        """
        if self._order is not None:
            return self._order, self._stuck  # type: ignore[return-value]
        indegree = [0] * self.n
        for index in range(self.n):
            if self.done[index]:
                continue
            for target in self.dependents[index]:
                if not self.done[target]:
                    indegree[target] += 1
        ready = [i for i in range(self.n)
                 if not self.done[i] and indegree[i] == 0]
        order: List[int] = []
        while ready:
            index = ready.pop()
            order.append(index)
            for target in self.dependents[index]:
                if self.done[target]:
                    continue
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
        seen = set(order)
        stuck = [i for i in range(self.n)
                 if not self.done[i] and i not in seen]
        self._order, self._stuck = order, stuck
        return order, stuck

    @property
    def is_acyclic(self) -> bool:
        return not self._kahn()[1]

    def cycles(self, limit: int = 8) -> List[List[int]]:
        """Cyclic strongly connected components (lists of task indices).

        Empty when the graph is a DAG — the common case pays only the
        Kahn pass; the SCC machinery is built lazily on the stuck
        subgraph.
        """
        _, stuck = self._kahn()
        if not stuck:
            return []
        import networkx as nx

        graph = nx.DiGraph()
        members = set(stuck)
        graph.add_nodes_from(stuck)
        for index in stuck:
            for target in self.dependents[index]:
                if target in members:
                    graph.add_edge(index, target)
        found: List[List[int]] = []
        for component in nx.strongly_connected_components(graph):
            if len(component) > 1 or any(
                    graph.has_edge(node, node) for node in component):
                found.append(sorted(component))
                if len(found) >= limit:
                    break
        return sorted(found)

    def stranded(self) -> List[Tuple[int, int]]:
        """Live tasks that can never become ready, per *declared* counts.

        Replays readiness propagation using each task's declared
        remaining-dependency counter (what the scheduler will actually
        decrement) instead of the edge in-degree.  Returns ``(index,
        in_edges)`` pairs: a task whose counter over-declares its
        in-edges (an orphaned dependency) strands forever even in an
        acyclic graph — the "tasks never became ready" deadlock, caught
        statically.
        """
        counts = list(self.declared)
        started = [False] * self.n
        stack = [i for i in range(self.n)
                 if not self.done[i] and counts[i] == 0]
        while stack:
            index = stack.pop()
            if started[index]:
                continue
            started[index] = True
            for target in self.dependents[index]:
                if self.done[target]:
                    continue
                counts[target] -= 1
                if counts[target] == 0:
                    stack.append(target)
        out: List[Tuple[int, int]] = []
        for index in range(self.n):
            if self.done[index] or started[index]:
                continue
            in_edges = sum(1 for dep in self.deps[index]
                           if not self.done[dep])
            out.append((index, in_edges))
        return out

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
                      ) -> Optional[CriticalPath]:
        """Critical-path length, per-task slack, and one witness path.

        ``None`` when the graph is cyclic (no schedule exists to
        analyse).  Done tasks carry zero cost and zero slack.
        """
        order, stuck = self._kahn()
        if stuck:
            return None
        costs = self.costs(config)
        earliest = [0.0] * self.n
        argmax = [-1] * self.n
        # order is a valid topological order over live tasks.
        for index in order:
            best, best_dep = 0.0, -1
            for dep in self.deps[index]:
                if self.done[dep]:
                    continue
                if earliest[dep] > best:
                    best, best_dep = earliest[dep], dep
            earliest[index] = best + costs[index]
            argmax[index] = best_dep
        length = max((earliest[i] for i in order), default=0.0)
        latest = [length] * self.n
        for index in reversed(order):
            bound = length
            for target in self.dependents[index]:
                if self.done[target]:
                    continue
                start = latest[target] - costs[target]
                if start < bound:
                    bound = start
            latest[index] = bound
        slack = [0.0] * self.n
        for index in order:
            slack[index] = max(latest[index] - earliest[index], 0.0)
        path: List[int] = []
        if order:
            tail = max(order, key=lambda i: earliest[i])
            while tail >= 0:
                path.append(tail)
                tail = argmax[tail]
            path.reverse()
        return CriticalPath(length, slack, path)

    # ------------------------------------------------------------------
    # Static memory bound
    # ------------------------------------------------------------------
    def levels(self) -> Optional[List[int]]:
        """Dependency depth of every live task (roots at 0); ``None`` when
        cyclic."""
        order, stuck = self._kahn()
        if stuck:
            return None
        level = [0] * self.n
        for index in order:
            depth = 0
            for dep in self.deps[index]:
                if not self.done[dep] and level[dep] + 1 > depth:
                    depth = level[dep] + 1
            level[index] = depth
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
        if level is None:
            return {}
        deltas: Dict[str, Dict[int, float]] = {}
        for index in range(self.n):
            if self.done[index] or self.kinds[index] != "transfer":
                continue
            gpu = self.dsts[index]
            if gpu is None:
                continue
            start = level[index]
            end = start
            for target in self.dependents[index]:
                if not self.done[target] and level[target] > end:
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
        out: dict = {"tasks": self.n, "source": self.source}
        out.update(self.kind_counts())
        critical = self.critical_path(config)
        found = critical is not None
        out["critical_path_s"] = critical.length if found else 0.0
        out["critical_tasks"] = len(critical.path) if found else 0
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
