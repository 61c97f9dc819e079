"""Dynamic determinism race detectors (``RC``-series, Tier B).

The bit-identical determinism contract (see ``docs/verifier.md``) rests
on three runtime invariants the static verifier cannot see:

* **RC001 tie-order race** — events sharing a timestamp must pop in
  program (insertion) order.  The engine guarantees this by stamping a
  monotone sequence number at :meth:`~repro.engine.engine.Engine.
  schedule` time; a scheduler extension that pushes heap entries
  directly, reuses sequence numbers, or derives them from an unstable
  source makes same-timestamp pop order depend on heap internals — the
  runs *look* fine but diverge across processes.  The detector watches
  every dispatch as an engine dispatch observer and checks,
  within each same-timestamp tie group, that heap order, sequence
  monotonicity, and the event's own stamped sequence all agree.  It
  also folds ``(time, seq)`` of every dispatch into an order digest —
  two runs of the same workload must produce equal digests.

* **RC002 happens-before violation** — the executed order must be a
  linear extension of the task graph: no task may *start* before every
  dependency has *finished*.  Checked after the run over the finished
  task table: for every plan (CSR) edge and fence edge, the dependent's
  ``start`` must not precede the dependency's ``end``.  Each edge is
  read once, O(edges) total.  The table holds times, not event order,
  so an inversion inside one instant (a dependent started at the very
  time its dependency finished, but by an earlier event) is invisible
  to it.

* **RC003 global-RNG drift** — strategy callbacks must not draw from the
  unseeded process-global ``random`` / NumPy generators (seeded local
  generators are how every repro component gets randomness); global
  draws make results depend on import order and host entropy.  The
  detector snapshots both global generator states at attach and
  compares at finalize.

Unlike the SZ sanitizers (which check *physical* invariants of one run),
these check the *reproducibility* contract across runs.  Both run as
the verifier's runtime tier through :class:`RuntimeSuite`, and both ride
the same registry, so ``--disable`` and the catalogue work unchanged.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.analysis.findings import Report
from repro.analysis.registry import DEFAULT_REGISTRY, Rule, RuleRegistry
from repro.analysis.sanitizers import (
    AllocatorWarningSanitizer,
    HeapLeakSanitizer,
    LinkCapacitySanitizer,
    PathCapacitySanitizer,
    RestartConsistencySanitizer,
    RuntimeCheck,
    TimeMonotonicSanitizer,
)
from repro.engine.engine import Engine
from repro.network.flow import FlowNetwork

if TYPE_CHECKING:
    from repro.core.taskgraph import TaskStore

#: Mask keeping the order digest a stable 64-bit value.
_DIGEST_MASK = (1 << 64) - 1

# Runtime rules carry no lint function: they fire from observers and
# post-run checks.
DEFAULT_REGISTRY.register(Rule(
    id="RC001", name="tie-order-race", category="runtime", severity="error",
    description="Same-timestamp events must pop in insertion order: heap "
                "order, sequence monotonicity, and each event's stamped "
                "sequence number must agree within every tie group.",
))
DEFAULT_REGISTRY.register(Rule(
    id="RC002", name="happens-before-violation", category="runtime",
    severity="error",
    description="The executed order must be a linear extension of the "
                "task graph: no task may start before all of its "
                "dependencies have finished.",
))
DEFAULT_REGISTRY.register(Rule(
    id="RC003", name="global-rng-drift", category="runtime",
    severity="warning",
    description="Simulation callbacks must not draw from the process-"
                "global random/NumPy generators; global draws break "
                "cross-process determinism.",
))


class TieOrderDetector(RuntimeCheck):
    """Engine dispatch observer enforcing deterministic tie-breaking."""

    def __init__(self, report: Report,
                 registry: RuleRegistry = DEFAULT_REGISTRY):
        super().__init__(report, registry)
        self.digest = 0
        self._last_time = float("-inf")
        self._last_seq = -1

    def observe(self, time: float, seq: int, event: object) -> None:
        self.digest = ((self.digest * 1000003) ^ hash((time, seq))) \
            & _DIGEST_MASK
        if time == self._last_time:
            if seq <= self._last_seq:
                self._fire(time, seq, self._last_seq,
                           "popped out of insertion order" if seq <
                           self._last_seq else "duplicates the previous "
                           "event's sequence number")
        stamped = getattr(event, "_seq", None)
        if stamped is not None and stamped != seq:
            self._fire(time, seq, stamped,
                       f"heap entry seq {seq} disagrees with the event's "
                       f"stamped seq {stamped} — the entry bypassed "
                       "Engine.schedule, so its tie position depends on "
                       "insertion internals")
        self._last_time = time
        self._last_seq = seq

    def _fire(self, time: float, seq: int, other: int, why: str) -> None:
        self._emit("RC001",
                   f"t={time:g} tie group: event seq {seq} {why} "
                   f"(previous/stamped seq {other}) — same-timestamp pop "
                   "order is not reproducible",
                   location=f"t={time:g}", time=time, seq=seq, other=other)


class HappensBeforeDetector(RuntimeCheck):
    """Post-run check that the finished task table extends the DAG
    order."""

    def check(self, store: "TaskStore") -> None:
        start, name = store.start, store.name
        for dep, finished in enumerate(store.end):
            if finished is None:
                continue
            for rid in store.successors(dep):
                started = start[rid]
                if started is None or started >= finished:
                    continue
                if self._fired >= self.limit:
                    return
                self._emit("RC002",
                           f"task {name[rid]!r} started at t={started:g} "
                           f"before its dependency {name[dep]!r} finished "
                           f"at t={finished:g} — the executed order is not "
                           "a linear extension of the task graph",
                           location=f"task[{rid}]", task=name[rid],
                           dependency=name[dep], started=started,
                           finished=finished)


class RngDriftDetector(RuntimeCheck):
    """Snapshot/compare of the process-global RNG states."""

    def __init__(self, report: Report,
                 registry: RuleRegistry = DEFAULT_REGISTRY):
        super().__init__(report, registry)
        self._random_state: Optional[object] = None
        self._numpy_digest: Optional[str] = None

    @staticmethod
    def _numpy_state_digest() -> Optional[str]:
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - numpy is a hard dep
            return None
        kind, keys, pos, has_gauss, gauss = np.random.get_state()
        return f"{kind}:{hash(keys.tobytes())}:{pos}:{has_gauss}:{gauss}"

    def snapshot(self) -> None:
        self._random_state = random.getstate()
        self._numpy_digest = self._numpy_state_digest()

    def compare(self) -> None:
        if self._random_state is not None \
                and random.getstate() != self._random_state:
            self._emit("RC003",
                       "the process-global random.Random state changed "
                       "during the simulation — a callback draws from the "
                       "unseeded global generator, so results depend on "
                       "import order and host entropy", location="random")
        if self._numpy_digest is not None \
                and self._numpy_state_digest() != self._numpy_digest:
            self._emit("RC003",
                       "the process-global numpy.random state changed "
                       "during the simulation — a callback draws from the "
                       "unseeded global generator", location="numpy.random")


class RuntimeSuite:
    """The verifier's runtime tier: every ``SZ`` sanitizer and ``RC``
    race detector behind one attach/finalize pair::

        suite = RuntimeSuite()
        suite.attach(engine=engine, network=network, injector=injector,
                     sim=sim)
        sim.run()
        report = suite.finalize()
        suite.order_digest  # equal across identical runs

    The engine-side checks (SZ001, RC001) are dispatch observers of the
    one run loop (:meth:`~repro.engine.engine.Engine.add_observer`), and
    the network-side checks (SZ002, SZ004, SZ006) are plain callables on
    the flow network's reallocation and warning observer lists, so a
    verified run dispatches exactly as an unverified one.  Every piece
    is optional; a check whose subject was not attached, or whose rule
    the registry disables, is skipped.
    """

    def __init__(self, registry: Optional[RuleRegistry] = None):
        self.registry = registry or DEFAULT_REGISTRY
        self.report = Report()
        #: Stable fold of every dispatched ``(time, seq)`` pair; equal
        #: digests certify two runs dispatched identical schedules.
        self.order_digest: Optional[int] = None
        self._engine: Optional[Engine] = None
        self._network: Any = None
        self._injector: Any = None
        self._sim: Any = None
        self._tie: Optional[TieOrderDetector] = None
        self._rng: Optional[RngDriftDetector] = None
        #: ``(remove, observer)`` pairs :meth:`finalize` undoes.
        self._attached: List[Tuple[Callable, Callable]] = []

    def _watch(self, add: Callable, remove: Callable,
               observer: Callable) -> None:
        add(observer)
        self._attached.append((remove, observer))

    def attach(self, engine: Optional[Engine] = None, network: Any = None,
               injector: Any = None, sim: Any = None) -> "RuntimeSuite":
        enabled = self.registry.is_enabled
        report, registry = self.report, self.registry
        self._engine, self._network = engine, network
        self._injector, self._sim = injector, sim
        if engine is not None:
            if enabled("RC001"):
                self._tie = TieOrderDetector(report, registry)
                self._watch(engine.add_observer, engine.remove_observer,
                            self._tie.observe)
            if enabled("SZ001"):
                self._watch(engine.add_observer, engine.remove_observer,
                            TimeMonotonicSanitizer(report, registry).observe)
        if isinstance(network, FlowNetwork):
            realloc, warning = (network.realloc_observers,
                                network.warning_observers)
            topology = network.topology
            if enabled("SZ002"):
                self._watch(realloc.append, realloc.remove,
                            LinkCapacitySanitizer(report, topology,
                                                  registry).observe)
            if enabled("SZ004"):
                self._watch(warning.append, warning.remove,
                            AllocatorWarningSanitizer(report,
                                                      registry).observe)
            if enabled("SZ006"):
                self._watch(realloc.append, realloc.remove,
                            PathCapacitySanitizer(report, topology,
                                                  registry).observe)
        if enabled("RC003"):
            self._rng = RngDriftDetector(report, registry)
            self._rng.snapshot()
        return self

    def finalize(self) -> Report:
        """Run the post-run checks and detach everything; returns the
        report."""
        enabled = self.registry.is_enabled
        report, registry = self.report, self.registry
        if self._engine is not None and enabled("SZ003"):
            HeapLeakSanitizer(report, registry).check(self._engine)
        if self._sim is not None and enabled("RC002"):
            HappensBeforeDetector(report, registry).check(self._sim.store)
        if self._injector is not None and enabled("SZ005"):
            RestartConsistencySanitizer(report, registry).check(
                self._injector, sim=self._sim, network=self._network)
        if self._rng is not None:
            self._rng.compare()
            self._rng = None
        if self._tie is not None:
            self.order_digest = self._tie.digest
            self._tie = None
        for remove, observer in self._attached:
            remove(observer)
        self._attached.clear()
        self._engine = self._network = self._injector = self._sim = None
        return self.report
