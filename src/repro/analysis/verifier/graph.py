"""A normalized, analysis-friendly view of an execution DAG.

Both inputs the deep verifier accepts — a live (not yet run)
:class:`~repro.core.taskgraph.TaskGraphSimulator` and a recorded
:class:`~repro.core.plan.ExtrapolationPlan` — are lowered into the same
:class:`GraphView`: parallel per-task arrays with *both* edge directions
materialized (plans store backward dep indices, live graphs store forward
successor edges in their task store; every whole-graph algorithm here
needs both).

On top of the view sit the whole-graph algorithms the DV rules share:
Kahn reachability, SCC cycle extraction, dependency levels, critical-path
/ slack analysis, and the static per-GPU transfer-footprint bound.
:meth:`GraphView.cycles` is the repo's only cycle detector.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.config import SimulationConfig
from repro.core.taskgraph import KIND_NAMES

#: Task kinds a well-formed graph may contain.
TASK_KINDS = ("compute", "transfer", "barrier")


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

    __slots__ = ("n", "source", "ids", "names", "kinds", "gpus", "durations",
                 "srcs", "dsts", "nbytes", "metas", "deps", "dependents",
                 "declared", "done", "defects", "_order", "_stuck")

    def __init__(self) -> None:
        self.n = 0
        self.source = ""
        self.ids: List[int] = []
        self.names: List[str] = []
        self.kinds: List[str] = []
        self.gpus: List[Optional[str]] = []
        self.durations: List[float] = []
        self.srcs: List[Optional[str]] = []
        self.dsts: List[Optional[str]] = []
        self.nbytes: List[float] = []
        self.metas: List[dict] = []
        self.deps: List[List[int]] = []
        self.dependents: List[List[int]] = []
        self.declared: List[int] = []
        self.done: List[bool] = []
        #: Structural defects found while lowering (dangling/forward/self
        #: dependency references) as ``(index, message)`` — DV001 input.
        self.defects: List[Tuple[int, str]] = []
        self._order: Optional[List[int]] = None
        self._stuck: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_plan(cls, plan: Any) -> "GraphView":
        """Lower an :class:`~repro.core.plan.ExtrapolationPlan`."""
        view = cls()
        view.source = "plan"
        tasks = plan.tasks
        view.n = len(tasks)
        for index, task in enumerate(tasks):
            view.ids.append(index)
            view.names.append(task.name)
            view.kinds.append(task.kind)
            view.gpus.append(task.gpu)
            view.durations.append(task.duration)
            view.srcs.append(task.src)
            view.dsts.append(task.dst)
            view.nbytes.append(task.nbytes)
            view.metas.append(task.meta)
            view.dependents.append([])
            view.declared.append(len(task.deps))
            view.done.append(False)
            kept: List[int] = []
            for dep in task.deps:
                if not isinstance(dep, int) or dep < 0 or dep >= len(tasks):
                    view.defects.append(
                        (index, f"dependency index {dep!r} is out of range "
                                f"(plan has {len(tasks)} tasks)"))
                elif dep == index:
                    view.defects.append((index, "task depends on itself"))
                elif dep > index:
                    view.defects.append(
                        (index, f"dependency index {dep} points forward "
                                "(plans must reference earlier tasks)"))
                else:
                    kept.append(dep)
            view.deps.append(kept)
        for index, kept in enumerate(view.deps):
            for dep in kept:
                view.dependents[dep].append(index)
        return view

    @classmethod
    def from_simulator(cls, sim: Any) -> "GraphView":
        """Lower a live :class:`~repro.core.taskgraph.TaskGraphSimulator`
        by reading its task store's columns.

        Edges are the rows' successors (a plan block's CSR plus the
        per-row ``succ`` lists), so fences appear as terminals→fence and
        fence→next-iteration-root edges; ``declared`` is the
        ``indegree`` counter the scheduler will decrement.
        """
        view = cls()
        view.source = "taskgraph"
        store = sim.store
        n = view.n = len(store)
        kinds = dict(enumerate(KIND_NAMES))
        view.ids = list(range(n))
        view.names = list(store.name)
        view.kinds = [kinds.get(k, k) for k in store.kind]
        view.gpus = list(store.gpu)
        view.durations = list(store.duration)
        view.srcs = list(store.src)
        view.dsts = list(store.dst)
        view.nbytes = list(store.nbytes)
        view.metas = list(store.meta)
        view.declared = list(store.indegree)
        view.done = [end is not None for end in store.end]
        view.deps = [[] for _ in range(n)]
        view.dependents = [[] for _ in range(n)]
        for index in range(n):
            for target in store.successors(index):
                if not isinstance(target, int) or not 0 <= target < n:
                    view.defects.append(
                        (index, f"successor {target!r} is not a row of "
                                f"this simulator ({n} rows)"))
                elif target == index:
                    view.defects.append((index, "task depends on itself"))
                else:
                    view.dependents[index].append(target)
                    view.deps[target].append(index)
        return view

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
        counts = dict.fromkeys(TASK_KINDS, 0)
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
