"""Static lint rules over extrapolated task graphs (``TG``-series).

The trace extrapolators emit a DAG of compute/transfer/barrier tasks; a
cross-GPU dependency cycle (e.g. from mis-ordered collective phases in a
custom extrapolator) deadlocks the simulation with a cryptic "tasks never
became ready" error after the engine has already drained.  These rules
run *before any event is scheduled* — strongly-connected-component
analysis over the dependency edges, endpoint checks against the network
topology, and dependency-count consistency — so ``--sanitize`` rejects a
broken graph up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import networkx as nx

from repro.analysis.registry import Emitter, rule
from repro.core.taskgraph import TRANSFER, TaskGraphSimulator


@dataclass
class TaskGraphContext:
    """The simulator under analysis plus the topology it will run on."""

    sim: TaskGraphSimulator
    topology: Optional[nx.Graph] = None


@rule("TG001", "taskgraph-cycle", "taskgraph", "error",
      description="The task dependency graph must be acyclic; a cycle "
                  "(e.g. mis-ordered collectives) deadlocks the run.")
def check_cycles(ctx: TaskGraphContext, emit: Emitter) -> None:
    # GraphView's Kahn fast path keeps the clean (acyclic) case near-free
    # — this runs before every sanitized simulation — and only builds the
    # SCC machinery once a cycle exists (shared with the DV002 deep rule).
    # Deferred import: the verifier package reaches back into the linter,
    # which imports this module.
    from repro.analysis.verifier.graph import GraphView

    view = GraphView.from_simulator(ctx.sim)
    for members in view.cycles(limit=3):
        names = [view.names[m] for m in members[:5]]
        emit(f"dependency cycle through {len(members)} task(s): "
             f"{', '.join(names)}"
             + (" ..." if len(members) > 5 else ""),
             location=f"task[{view.ids[members[0]]}]", size=len(members))


@rule("TG002", "taskgraph-endpoint", "taskgraph", "error",
      description="Transfer tasks must name endpoints that exist in the "
                  "network topology.")
def check_endpoints(ctx: TaskGraphContext, emit: Emitter) -> None:
    if ctx.topology is None:
        return
    store = ctx.sim.store
    count = 0
    for tid, kind in enumerate(store.kind):
        if kind != TRANSFER:
            continue
        for endpoint in (store.src[tid], store.dst[tid]):
            if endpoint not in ctx.topology:
                if count < 5:
                    emit(f"transfer {store.name[tid]!r} endpoint "
                         f"{endpoint!r} is not a topology node",
                         location=f"task[{tid}]", endpoint=str(endpoint))
                count += 1


@rule("TG003", "taskgraph-dep-mismatch", "taskgraph", "error",
      description="Each task's remaining-dependency counter must equal "
                  "its in-degree; a mismatch strands the task forever.")
def check_dep_counts(ctx: TaskGraphContext, emit: Emitter) -> None:
    store = ctx.sim.store
    end = store.end
    indegree = [0] * len(store)
    for tid in range(len(store)):
        if end[tid] is not None:
            continue
        for target in store.successors(tid):
            if end[target] is None:
                indegree[target] += 1
    count = 0
    for tid, counted in enumerate(store.indegree):
        if end[tid] is None and counted != indegree[tid]:
            if count < 5:
                emit(f"task {store.name[tid]!r} counts {counted} "
                     f"pending deps but {indegree[tid]} tasks point at it",
                     location=f"task[{tid}]", counted=counted,
                     actual=indegree[tid])
            count += 1
