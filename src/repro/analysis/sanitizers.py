"""Runtime sanitizers (``SZ``-series): invariant checkers wired through
the engine's dispatch observers and the simulators' hook positions.

Where the static lint passes reject bad *inputs*, sanitizers watch the
simulation *while it runs* for invariants whose violation silently
corrupts results:

* :class:`TimeMonotonicSanitizer` — virtual time must never run backwards
  across dispatched events (an engine dispatch observer);
* :class:`LinkCapacitySanitizer` — after every bandwidth reallocation the
  flow rates crossing each directed link must not exceed its capacity
  (hooked on :class:`~repro.network.flow.FlowNetwork`);
* :class:`HeapLeakSanitizer` — after the run loop drains, no live events
  may remain queued and the cancelled-entry accounting must be consistent
  (a post-run check on the engine);
* :class:`AllocatorWarningSanitizer` — the max-min allocator's
  numerical-safety edges (progressive filling stalling without freezing a
  flow) must not pass silently (hooked on
  :data:`~repro.network.flow.HOOK_FLOW_WARNING`);
* :class:`PathCapacitySanitizer` — every allocated flow must ride a
  route that exists in the topology, and its rate must not exceed the
  route's bottleneck capacity (path-capacity conservation — the
  multi-path routing layer must never assemble a route whose links
  cannot carry the allocated rate).

They run as the runtime tier of ``--verify``, beside the ``RC`` race
detectors, through :class:`~repro.analysis.verifier.RuntimeSuite`.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.findings import Finding, Report
from repro.analysis.registry import DEFAULT_REGISTRY, Rule
from repro.engine.engine import Engine
from repro.engine.hooks import HookCtx
from repro.network.flow import HOOK_FLOW_REALLOC, HOOK_FLOW_WARNING

#: Per-sanitizer cap so a broken invariant doesn't flood the report.
MAX_FINDINGS_PER_SANITIZER = 20

# Runtime rules carry no lint function: they fire from hooks.  Registering
# them keeps the catalogue complete and lets ``--disable`` suppress them.
DEFAULT_REGISTRY.register(Rule(
    id="SZ001", name="time-monotonic", category="runtime", severity="error",
    description="Virtual time must be non-decreasing across dispatched "
                "events.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SZ002", name="link-capacity", category="runtime", severity="error",
    description="Allocated flow rates over any directed link must not "
                "exceed its bandwidth.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SZ003", name="heap-leak", category="runtime", severity="error",
    description="No live events may remain queued after the run loop "
                "drains, and cancelled-event accounting must balance.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SZ004", name="allocator-convergence", category="runtime",
    severity="warning",
    description="The max-min allocator hit a numerical-safety edge "
                "(progressive filling stalled without freezing a flow); "
                "allocated rates may be conservative.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SZ005", name="fault-restart-consistency", category="runtime",
    severity="error",
    description="After a faulted run, transient link degradations must be "
                "restored, no flow may be stranded, every task must have "
                "finished, and stall accounting must be non-negative.",
))
DEFAULT_REGISTRY.register(Rule(
    id="SZ006", name="path-capacity", category="runtime", severity="error",
    description="Every allocated flow's route must consist of topology "
                "edges, and its rate must not exceed the route's "
                "bottleneck link capacity.",
))


def _emit(report: Report, rule_id: str, message: str, location: str = "",
          **detail: object) -> None:
    rule = DEFAULT_REGISTRY.get(rule_id)
    report.add(Finding(rule=rule.id, name=rule.name, severity=rule.severity,
                       message=message, location=location, detail=detail))


class TimeMonotonicSanitizer:
    """Dispatch observer asserting the engine clock never moves backwards."""

    def __init__(self, report: Report):
        self.report = report
        self._last = float("-inf")
        self._fired = 0

    def observe(self, time: float, seq: int, event: object) -> None:
        if time >= self._last:
            self._last = time
        elif self._fired < MAX_FINDINGS_PER_SANITIZER:
            self._fired += 1
            _emit(self.report, "SZ001",
                  f"virtual time moved backwards: {time!r} after "
                  f"{self._last!r} (event seq {seq})",
                  location=f"t={time:g}", time=time, previous=self._last,
                  seq=seq)


class LinkCapacitySanitizer:
    """Hook asserting max-min allocation conserves link capacity.

    Fires on :data:`~repro.network.flow.HOOK_FLOW_REALLOC`: sums the
    allocated rate of every flow crossing each directed edge and compares
    against the edge bandwidth (with a relative tolerance for the
    allocator's progressive-filling arithmetic).
    """

    def __init__(self, report: Report, rel_tolerance: float = 1e-6):
        self.report = report
        self.rel_tolerance = rel_tolerance
        self._fired = 0

    def func(self, ctx: HookCtx) -> None:
        if ctx.pos != HOOK_FLOW_REALLOC:
            return
        topology = ctx.detail["topology"]
        loads = {}
        for flow in ctx.item:
            if flow.rate <= 0.0:
                continue
            for edge in flow.route:
                loads[edge] = loads.get(edge, 0.0) + flow.rate
        for (u, v), load in loads.items():
            capacity = topology[u][v]["bandwidth"]
            if load > capacity * (1.0 + self.rel_tolerance) + 1e-3:
                if self._fired < MAX_FINDINGS_PER_SANITIZER:
                    self._fired += 1
                    _emit(self.report, "SZ002",
                          f"link {u}->{v} allocated {load:.6g} B/s over a "
                          f"{capacity:.6g} B/s capacity at t={ctx.time:g}",
                          location=f"edge {u}-{v}",
                          load=load, capacity=capacity, time=ctx.time)


class PathCapacitySanitizer:
    """Hook asserting per-flow path-capacity conservation.

    Fires on :data:`~repro.network.flow.HOOK_FLOW_REALLOC`: every solved
    flow's route must consist of edges present in the topology (a
    strategy returning a stale or fabricated path would corrupt the
    allocator's incidence index), and the flow's allocated rate must not
    exceed the smallest link capacity along its route — max-min fairness
    can never hand one flow more than its path's bottleneck.
    """

    def __init__(self, report: Report, rel_tolerance: float = 1e-6):
        self.report = report
        self.rel_tolerance = rel_tolerance
        self._fired = 0

    def func(self, ctx: HookCtx) -> None:
        if ctx.pos != HOOK_FLOW_REALLOC:
            return
        topology = ctx.detail["topology"]
        for flow in ctx.item:
            bottleneck = None
            for u, v in flow.route:
                if not topology.has_edge(u, v):
                    if self._fired < MAX_FINDINGS_PER_SANITIZER:
                        self._fired += 1
                        _emit(self.report, "SZ006",
                              f"flow {flow.src}->{flow.dst} routed over "
                              f"{u}->{v}, which is not a topology edge",
                              location=f"edge {u}-{v}",
                              src=flow.src, dst=flow.dst, time=ctx.time)
                    bottleneck = None
                    break
                capacity = topology[u][v]["bandwidth"]
                if bottleneck is None or capacity < bottleneck:
                    bottleneck = capacity
            if bottleneck is None or flow.rate <= 0.0:
                continue
            if flow.rate > bottleneck * (1.0 + self.rel_tolerance) + 1e-3:
                if self._fired < MAX_FINDINGS_PER_SANITIZER:
                    self._fired += 1
                    _emit(self.report, "SZ006",
                          f"flow {flow.src}->{flow.dst} allocated "
                          f"{flow.rate:.6g} B/s over a path with "
                          f"{bottleneck:.6g} B/s bottleneck at "
                          f"t={ctx.time:g}",
                          location=f"{flow.src}->{flow.dst}",
                          rate=flow.rate, bottleneck=bottleneck,
                          time=ctx.time)


class AllocatorWarningSanitizer:
    """Hook surfacing the allocator's numerical-safety warnings.

    :class:`~repro.network.flow.FlowNetwork` fires
    :data:`~repro.network.flow.HOOK_FLOW_WARNING` when progressive filling
    breaks out of its loop without converging (the branch that used to be
    a silent ``break``).  Each warning becomes an SZ004 finding carrying
    the allocator's own message and detail.
    """

    def __init__(self, report: Report):
        self.report = report
        self._fired = 0

    def func(self, ctx: HookCtx) -> None:
        if ctx.pos != HOOK_FLOW_WARNING:
            return
        if self._fired < MAX_FINDINGS_PER_SANITIZER:
            self._fired += 1
            _emit(self.report, "SZ004",
                  f"{ctx.item} at t={ctx.time:g}",
                  location="allocator", time=ctx.time, **ctx.detail)


class HeapLeakSanitizer:
    """Post-run check for events stranded in (or leaked from) the heap."""

    def __init__(self, report: Report):
        self.report = report

    def check(self, engine: Engine) -> None:
        pending = engine.pending_events
        if pending > 0:
            _emit(self.report, "SZ003",
                  f"{pending} live event(s) still queued after the run "
                  "loop drained — a handler leaked scheduled work",
                  location="engine", pending=pending)
        if engine._cancelled < 0 or engine._cancelled > len(engine._queue):
            _emit(self.report, "SZ003",
                  f"cancelled-event accounting out of range: "
                  f"{engine._cancelled} cancelled vs {len(engine._queue)} "
                  "queued entries", location="engine",
                  cancelled=engine._cancelled, queued=len(engine._queue))


class RestartConsistencySanitizer:
    """Post-run check that fault injection left a consistent simulation.

    A checkpoint-restart cycle that strands a flow, leaves a link
    degraded past its last fault window, or double-counts stall time
    silently skews time-to-train; this turns each of those into an SZ005
    finding.  Runs only when a fault injector was attached.
    """

    def __init__(self, report: Report):
        self.report = report

    def check(self, injector: Any, sim: Any = None,
              network: Any = None) -> None:
        for message in injector.consistency_errors():
            _emit(self.report, "SZ005", message, location="injector")
        if sim is not None and sim.unfinished_tasks:
            _emit(self.report, "SZ005",
                  f"{sim.unfinished_tasks} task(s) never finished after "
                  "fault recovery", location="taskgraph",
                  unfinished=sim.unfinished_tasks)
        if network is not None:
            active = getattr(network, "active_flows", 0)
            if active:
                _emit(self.report, "SZ005",
                      f"{active} flow(s) still active after the run — a "
                      "stall or restart stranded them", location="network",
                      active=active)
