"""Runtime sanitizers (``SZ``-series): invariant checkers that observe a
running simulation through the engine's dispatch observers and the flow
network's reallocation and warning observers.

Where the static lint passes reject bad *inputs*, sanitizers watch the
simulation *while it runs* for invariants whose violation silently
corrupts results:

* :class:`TimeMonotonicSanitizer` — virtual time must never run backwards
  across dispatched events and steps (an engine dispatch observer);
* :class:`LinkCapacitySanitizer` — after every bandwidth reallocation the
  flow rates crossing each directed link must not exceed its capacity
  (a reallocation observer of :class:`~repro.network.flow.FlowNetwork`);
* :class:`HeapLeakSanitizer` — after the run loop drains, no live events
  may remain queued and the cancelled-entry accounting must be consistent
  (a post-run check on the engine);
* :class:`AllocatorWarningSanitizer` — the max-min allocator's
  numerical-safety edges (progressive filling stalling without freezing a
  flow) must not pass silently (a warning observer of the network);
* :class:`PathCapacitySanitizer` — every allocated flow must ride a
  route that exists in the topology, and its rate must not exceed the
  route's bottleneck capacity (path-capacity conservation — the
  multi-path routing layer must never assemble a route whose links
  cannot carry the allocated rate).

They run as the runtime tier of ``--verify``, beside the ``RC`` race
detectors, through :class:`~repro.analysis.verifier.RuntimeSuite`.
"""

from __future__ import annotations

import math
from typing import Any, List

import networkx as nx

from repro.analysis.findings import Report
from repro.analysis.registry import DEFAULT_REGISTRY, Rule, RuleRegistry
from repro.engine.engine import Engine
from repro.network.flow import FlowView

#: Per-sanitizer cap so a broken invariant doesn't flood the report.
MAX_FINDINGS_PER_SANITIZER = 20
#: Relative slack on capacity comparisons, absorbing the allocator's
#: progressive-filling arithmetic.
REL_TOLERANCE = 1e-6

# Runtime rules carry no lint function: they fire from observers and
# post-run checks.  Registering them keeps the catalogue complete and lets
# ``--disable`` suppress them.
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


class RuntimeCheck:
    """Base of the runtime tier's checks: each emits its findings into
    one report through a rule registry, at most :attr:`limit` of them."""

    #: Findings one check may emit before it falls silent.
    limit: float = MAX_FINDINGS_PER_SANITIZER

    def __init__(self, report: Report,
                 registry: RuleRegistry = DEFAULT_REGISTRY):
        self.report = report
        self.registry = registry
        self._fired = 0

    def _emit(self, rule_id: str, message: str, location: str = "",
              **detail: object) -> None:
        if self._fired < self.limit:
            self._fired += 1
            self.registry.emit(self.report, rule_id, message, location,
                               **detail)


class TimeMonotonicSanitizer(RuntimeCheck):
    """Dispatch observer asserting the engine clock never moves backwards."""

    def __init__(self, report: Report,
                 registry: RuleRegistry = DEFAULT_REGISTRY):
        super().__init__(report, registry)
        self._last = float("-inf")

    def observe(self, time: float, seq: int, event: object) -> None:
        if time >= self._last:
            self._last = time
        else:
            self._emit("SZ001",
                       f"virtual time moved backwards: {time!r} after "
                       f"{self._last!r} (event seq {seq})",
                       location=f"t={time:g}", time=time,
                       previous=self._last, seq=seq)


class LinkCapacitySanitizer(RuntimeCheck):
    """Reallocation observer asserting max-min allocation conserves link
    capacity.

    After every reallocation of a :class:`~repro.network.flow.FlowNetwork`
    it sums the allocated rate of every flow crossing each directed edge
    and compares against the edge bandwidth of *topology* (with a
    relative tolerance for the allocator's progressive-filling
    arithmetic).
    """

    def __init__(self, report: Report, topology: nx.Graph,
                 registry: RuleRegistry = DEFAULT_REGISTRY):
        super().__init__(report, registry)
        self.topology = topology

    def observe(self, time: float, flows: List[FlowView]) -> None:
        topology = self.topology
        loads = {}
        for flow in flows:
            if flow.rate <= 0.0:
                continue
            for edge in flow.route:
                loads[edge] = loads.get(edge, 0.0) + flow.rate
        for (u, v), load in loads.items():
            if not topology.has_edge(u, v):
                continue  # a link the topology lacks is SZ006's finding
            capacity = topology[u][v]["bandwidth"]
            if load > capacity * (1.0 + REL_TOLERANCE) + 1e-3:
                self._emit("SZ002",
                           f"link {u}->{v} allocated {load:.6g} B/s over a "
                           f"{capacity:.6g} B/s capacity at t={time:g}",
                           location=f"edge {u}-{v}",
                           load=load, capacity=capacity, time=time)


class PathCapacitySanitizer(RuntimeCheck):
    """Reallocation observer asserting per-flow path-capacity
    conservation.

    Every solved flow's route must consist of edges present in
    *topology* (a strategy returning a stale or fabricated path would
    corrupt the allocator's incidence index), and the flow's allocated
    rate must not exceed the smallest link capacity along its route —
    max-min fairness can never hand one flow more than its path's
    bottleneck.
    """

    def __init__(self, report: Report, topology: nx.Graph,
                 registry: RuleRegistry = DEFAULT_REGISTRY):
        super().__init__(report, registry)
        self.topology = topology

    def observe(self, time: float, flows: List[FlowView]) -> None:
        topology = self.topology
        for flow in flows:
            bottleneck = None
            for u, v in flow.route:
                if not topology.has_edge(u, v):
                    self._emit("SZ006",
                               f"flow {flow.src}->{flow.dst} routed over "
                               f"{u}->{v}, which is not a topology edge",
                               location=f"edge {u}-{v}",
                               src=flow.src, dst=flow.dst, time=time)
                    bottleneck = None
                    break
                capacity = topology[u][v]["bandwidth"]
                if bottleneck is None or capacity < bottleneck:
                    bottleneck = capacity
            if bottleneck is None or flow.rate <= 0.0:
                continue
            if flow.rate > bottleneck * (1.0 + REL_TOLERANCE) + 1e-3:
                self._emit("SZ006",
                           f"flow {flow.src}->{flow.dst} allocated "
                           f"{flow.rate:.6g} B/s over a path with "
                           f"{bottleneck:.6g} B/s bottleneck at t={time:g}",
                           location=f"{flow.src}->{flow.dst}",
                           rate=flow.rate, bottleneck=bottleneck, time=time)


class AllocatorWarningSanitizer(RuntimeCheck):
    """Warning observer surfacing the allocator's numerical-safety
    warnings.

    :class:`~repro.network.flow.FlowNetwork` calls its warning observers
    when progressive filling breaks out of its loop without converging
    (the branch that used to be a silent ``break``).  Each warning
    becomes an SZ004 finding carrying the allocator's own message and
    detail.
    """

    def observe(self, time: float, message: str, detail: dict) -> None:
        self._emit("SZ004", f"{message} at t={time:g}",
                   location="allocator", time=time, **detail)


class HeapLeakSanitizer(RuntimeCheck):
    """Post-run check for events stranded in (or leaked from) the heap."""

    def check(self, engine: Engine) -> None:
        pending = engine.pending_events
        if pending > 0:
            self._emit("SZ003",
                       f"{pending} live event(s) still queued after the "
                       "run loop drained — a handler leaked scheduled work",
                       location="engine", pending=pending)
        if engine._cancelled < 0 or engine._cancelled > len(engine._queue):
            self._emit("SZ003",
                       f"cancelled-event accounting out of range: "
                       f"{engine._cancelled} cancelled vs "
                       f"{len(engine._queue)} queued entries",
                       location="engine", cancelled=engine._cancelled,
                       queued=len(engine._queue))


class RestartConsistencySanitizer(RuntimeCheck):
    """Post-run check that fault injection left a consistent simulation.

    A checkpoint-restart cycle that strands a flow, leaves a link
    degraded past its last fault window, or double-counts stall time
    silently skews time-to-train; this turns each of those into an SZ005
    finding.  Runs only when a fault injector was attached.
    """

    limit = math.inf

    def check(self, injector: Any, sim: Any = None,
              network: Any = None) -> None:
        for message in injector.consistency_errors():
            self._emit("SZ005", message, location="injector")
        if sim is not None and sim.unfinished_tasks:
            self._emit("SZ005",
                       f"{sim.unfinished_tasks} task(s) never finished "
                       "after fault recovery", location="taskgraph",
                       unfinished=sim.unfinished_tasks)
        if network is not None:
            active = getattr(network, "active_flows", 0)
            if active:
                self._emit("SZ005",
                           f"{active} flow(s) still active after the run "
                           "— a stall or restart stranded them",
                           location="network", active=active)
