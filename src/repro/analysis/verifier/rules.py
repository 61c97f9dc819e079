"""Deep whole-graph verification rules (``DV``-series, Tier A).

These verify the execution DAG *as a whole* — over either a live
:class:`~repro.core.taskgraph.TaskGraphSimulator` or a recorded
:class:`~repro.core.plan.ExtrapolationPlan`, lowered to one
:class:`~repro.analysis.verifier.graph.GraphView`:

* **DV001** structural gate — dangling/forward/self dependency
  references, unknown kinds, negative durations/bytes, malformed
  transfer endpoints, and (given the topology a live graph will run
  on) endpoints that are not topology nodes;
* **DV002** cycle gate — SCC-extracted dependency cycles (fence
  involvement called out: a cycle through an iteration fence deadlocks
  every subsequent iteration);
* **DV003** dead tasks — tasks that can never become ready under their
  declared dependency counters (the static form of the engine's "tasks
  never became ready" deadlock);
* **DV004** cross-rank collective matching — each collective tag must
  form one connected exchange with a legal role shape, and per-rank tag
  orderings must embed in a global order (an inversion is a would-be
  deadlock: two ranks waiting on each other's collectives);
* **DV005** static per-GPU peak transfer footprint vs the target GPU's
  memory capacity.

Findings of DV003–DV005 carry critical-path/slack annotation in their
detail dicts (``critical_path_s``, ``slack_s``, ``on_critical_path``) so
a reader can tell whether the defect sits on the run's critical path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.analysis.registry import Emitter, rule
from repro.analysis.verifier.graph import (
    CriticalPath,
    GraphView,
    collective_components,
    collective_groups,
)
from repro.core.config import SimulationConfig
from repro.core.taskgraph import KIND_NAMES

#: Per-rule cap so one systemic defect doesn't flood the report.
MAX_FINDINGS_PER_RULE = 10


@dataclass
class VerifyContext:
    """One graph under verification plus everything rules may consult."""

    view: GraphView
    config: Optional[SimulationConfig] = None
    topology: Optional[nx.Graph] = None
    _critical: Optional[CriticalPath] = field(
        default=None, init=False, repr=False)
    _critical_done: bool = field(default=False, init=False, repr=False)

    @property
    def critical(self) -> Optional[CriticalPath]:
        """Memoized critical-path analysis (``None`` on cyclic graphs)."""
        if not self._critical_done:
            self._critical = self.view.critical_path(self.config)
            self._critical_done = True
        return self._critical

    def annotation(self, index: int) -> dict:
        """Slack annotation for the task at *index* (empty when cyclic)."""
        critical = self.critical
        if critical is None:
            return {}
        return {
            "critical_path_s": critical.length,
            "slack_s": critical.slack[index],
            "on_critical_path": critical.is_critical(index),
        }

    def where(self, index: int) -> str:
        return f"task[{index}]"


@rule("DV001", "verify-structure", "verify", "error", gate=True,
      description="Every task must be well-formed: in-range backward "
                  "dependency indices, a known kind, non-negative "
                  "duration/bytes, and transfers with distinct, present "
                  "endpoints that are nodes of the network topology.")
def check_structure(ctx: VerifyContext, emit: Emitter) -> None:
    view = ctx.view
    topology = ctx.topology
    fired = 0

    def report(index: int, message: str, **detail: object) -> None:
        nonlocal fired
        if fired < MAX_FINDINGS_PER_RULE:
            emit(f"task {view.names[index]!r}: {message}",
                 location=ctx.where(index), **detail)
        fired += 1

    for index, message in view.defects:
        report(index, message)
    for index in range(view.n):
        kind = view.kinds[index]
        if kind not in KIND_NAMES:
            report(index, f"unknown task kind {kind!r}", kind=str(kind))
            continue
        if kind == "compute":
            if view.gpus[index] is None:
                report(index, "compute task is not pinned to a GPU")
            if view.durations[index] < 0:
                report(index, f"negative duration {view.durations[index]!r}",
                       duration=view.durations[index])
        elif kind == "transfer":
            src, dst = view.srcs[index], view.dsts[index]
            if not src or not dst:
                report(index, f"transfer endpoints missing (src={src!r}, "
                              f"dst={dst!r})")
            elif src == dst:
                report(index, f"transfer sends {src!r} to itself",
                       endpoint=str(src))
            elif topology is not None:
                for endpoint in (src, dst):
                    if endpoint not in topology:
                        report(index, f"transfer endpoint {endpoint!r} is "
                                      "not a topology node",
                               endpoint=str(endpoint))
            if view.nbytes[index] < 0:
                report(index, f"negative byte count {view.nbytes[index]!r}",
                       nbytes=view.nbytes[index])
    if fired > MAX_FINDINGS_PER_RULE:
        emit(f"{fired - MAX_FINDINGS_PER_RULE} further structural "
             "defect(s) suppressed", severity="info", suppressed=fired)


@rule("DV002", "verify-cycle", "verify", "error", gate=True,
      description="The dependency graph must be acyclic; each cycle is "
                  "named via SCC analysis (a cycle through a fence "
                  "deadlocks every later iteration).")
def check_cycles(ctx: VerifyContext, emit: Emitter) -> None:
    view = ctx.view
    for members in view.cycles(limit=3):
        names = [view.names[m] for m in members[:5]]
        fences = [view.names[m] for m in members
                  if view.kinds[m] == "barrier"
                  and ("fence" in view.names[m]
                       or view.names[m].startswith("iteration"))]
        message = (f"dependency cycle through {len(members)} task(s): "
                   f"{', '.join(names)}"
                   + (" ..." if len(members) > 5 else ""))
        if fences:
            message += (f"; the cycle passes through fence "
                        f"{fences[0]!r} — every later iteration deadlocks")
        emit(message, location=ctx.where(members[0]), size=len(members),
             members=members[:10])


@rule("DV003", "verify-dead-task", "verify", "error",
      description="Every task must eventually become ready: a declared "
                  "dependency counter exceeding the task's in-edges "
                  "strands it (and everything downstream) forever.")
def check_dead_tasks(ctx: VerifyContext, emit: Emitter) -> None:
    view = ctx.view
    stranded = view.stranded()
    for index, in_edges in stranded[:MAX_FINDINGS_PER_RULE]:
        declared = view.declared[index]
        if declared > in_edges:
            why = (f"declares {declared} pending dependencies but only "
                   f"{in_edges} live task(s) point at it")
        elif declared < in_edges:
            why = (f"declares {declared} pending dependencies but "
                   f"{in_edges} live task(s) point at it (would start "
                   "before its inputs exist)")
        else:
            why = ("is stranded behind another dead task "
                   f"({declared} pending dependencies)")
        emit(f"task {view.names[index]!r} can never run: {why}",
             location=ctx.where(index), declared=declared,
             in_edges=in_edges, **ctx.annotation(index))
    if len(stranded) > MAX_FINDINGS_PER_RULE:
        emit(f"{len(stranded) - MAX_FINDINGS_PER_RULE} further dead "
             "task(s) suppressed", severity="info",
             total=len(stranded))


def _rank_roles(view: GraphView, indices: List[int]
                ) -> Tuple[set, set, set]:
    senders, receivers = set(), set()
    for index in indices:
        src, dst = view.srcs[index], view.dsts[index]
        if src is not None:
            senders.add(src)
        if dst is not None:
            receivers.add(dst)
    return senders - receivers, receivers - senders, senders & receivers


@rule("DV004", "verify-collective-mismatch", "verify", "error",
      description="Every collective's transfers must form one connected "
                  "exchange with a legal role shape, and per-rank "
                  "collective orderings must embed in a global order — "
                  "a mismatch is a would-be deadlock on real hardware.")
def check_collectives(ctx: VerifyContext, emit: Emitter) -> None:
    view = ctx.view
    groups = collective_groups(view)
    fired = 0

    # (a) split collectives: one tag, several disconnected islands.
    for tag, indices in groups.items():
        components = collective_components(view, indices)
        if components > 1 and fired < MAX_FINDINGS_PER_RULE:
            fired += 1
            emit(f"collective {tag!r} splits into {components} "
                 "disconnected rank groups exchanging under one tag — "
                 "the ranks of each island would wait on the others "
                 "forever", location=f"collective[{tag}]",
                 components=components, transfers=len(indices),
                 **ctx.annotation(indices[0]))

    # (b) role asymmetry: send-only ranks with no receive-only
    # counterpart (or vice versa) match no collective shape — symmetric
    # exchanges (all-reduce rounds) have neither, rooted ones
    # (reduce/broadcast/scatter/gather, tree levels) have both.
    for tag, indices in groups.items():
        send_only, recv_only, full = _rank_roles(view, indices)
        offenders: List[Tuple[str, str]] = []
        if send_only and not recv_only:
            offenders = [(rank, "sends but never receives")
                         for rank in sorted(send_only)]
        elif recv_only and not send_only:
            offenders = [(rank, "receives but never sends")
                         for rank in sorted(recv_only)]
        for rank, what in offenders:
            if fired < MAX_FINDINGS_PER_RULE:
                fired += 1
                emit(f"rank {rank!r} {what} in collective {tag!r} while "
                     f"{len(full)} other rank(s) are full participants — "
                     "no collective has this shape; the real collective "
                     "would deadlock waiting for the missing leg",
                     location=f"collective[{tag}]", rank=rank,
                     send_only=sorted(send_only),
                     recv_only=sorted(recv_only),
                     **ctx.annotation(indices[0]))

    # (c) cross-rank sequence inversion: each rank's first-participation
    # order over tags must embed in one global order; an SCC in the
    # tag-precedence graph means two ranks enter the same collectives in
    # opposite orders — the classic collective-ordering deadlock.
    first_seen: Dict[str, Dict[str, int]] = {}
    for tag, indices in groups.items():
        for index in indices:
            for rank in (view.srcs[index], view.dsts[index]):
                if rank is None:
                    continue
                per_rank = first_seen.setdefault(rank, {})
                if tag not in per_rank or index < per_rank[tag]:
                    per_rank[tag] = index
    precedence: nx.DiGraph = nx.DiGraph()
    precedence.add_nodes_from(groups)
    for rank, tags in first_seen.items():
        ordered = sorted(tags, key=lambda t: tags[t])
        for earlier, later in zip(ordered, ordered[1:]):
            precedence.add_edge(earlier, later, rank=rank)
    for component in nx.strongly_connected_components(precedence):
        if len(component) < 2:
            continue
        if fired < MAX_FINDINGS_PER_RULE:
            fired += 1
            tags = sorted(component)
            emit("collective ordering inversion: ranks enter "
                 f"{', '.join(repr(t) for t in tags[:4])}"
                 + (" ..." if len(tags) > 4 else "")
                 + " in conflicting orders — on real hardware each rank "
                   "blocks in its first collective and the group "
                   "deadlocks", location=f"collective[{tags[0]}]",
                 tags=tags[:10])


@rule("DV005", "verify-peak-memory", "verify", "error",
      description="The static per-GPU peak of simultaneously-live "
                  "transfer buffers must fit the target GPU's memory "
                  "capacity.")
def check_peak_memory(ctx: VerifyContext, emit: Emitter) -> None:
    config = ctx.config
    gpu_name = getattr(config, "gpu", None)
    if not gpu_name:
        return
    from repro.gpus.specs import GPU_SPECS

    spec = GPU_SPECS.get(str(gpu_name).upper())
    if spec is None:
        return  # CF010's jurisdiction
    peaks = ctx.view.peak_transfer_bytes()
    fired = 0
    for gpu in sorted(peaks):
        peak = peaks[gpu]
        if peak <= spec.mem_capacity:
            continue
        if fired < 5:
            fired += 1
            emit(f"GPU {gpu!r} stages {peak / 2 ** 30:.2f} GiB of "
                 "simultaneously-live transfer buffers, over the "
                 f"{spec.mem_capacity / 2 ** 30:.0f} GiB capacity of "
                 f"{spec.name} — the communication working set alone "
                 "cannot fit", location=f"gpu[{gpu}]",
                 peak_bytes=peak, capacity_bytes=spec.mem_capacity)
