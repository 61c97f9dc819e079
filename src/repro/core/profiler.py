"""Pipeline profiler: where did the wall-clock of one run actually go?

With the plan/execute split, "is the cached path fast *and* right?" is a
question every sweep answers per point.  :class:`PipelineProfiler`
accumulates per-phase wall durations (trace-prep / plan / instancing /
engine), plus counters such as how many times the extrapolator actually
built a graph, into a plain dict that rides along in
:attr:`SimulationResult.profile` and aggregates into sweep metrics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Optional

#: Phase names in canonical reporting order.  ``fold_detect`` times the
#: steady-state check between warm-up iterations of a folded run;
#: ``fold_extend`` times the algebraic extension of the folded tail
#: (timeline replication + counter scaling).  Both are absent from
#: unfolded runs.
PHASES = ("trace_prep", "plan", "instancing", "fold_detect", "engine",
          "fold_extend")


class PipelineProfiler:
    """Accumulates per-phase wall time and integer counters for one run."""

    def __init__(self):
        self.phases: Dict[str, float] = {}
        self.counters: Dict[str, int] = {}
        self.plan_source: Optional[str] = None
        #: Iteration-folding outcome of the run: ``"folded"``,
        #: ``"not-steady"`` (eligible but the warm-up durations
        #: disagreed), or ``"off:<reason>"`` (see
        #: :func:`repro.core.fold.fold_decision`); ``None`` for
        #: single-iteration runs predating the concept.
        self.fold_status: Optional[str] = None

    @contextmanager
    def phase(self, name: str):
        """Time the body and add its wall duration to phase *name*."""
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            self.phases[name] = self.phases.get(name, 0.0) + elapsed

    def add_phase(self, name: str, seconds: float) -> None:
        """Add *seconds* of already-measured wall time to phase *name*."""
        self.phases[name] = self.phases.get(name, 0.0) + float(seconds)

    def count(self, name: str, increment: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + increment

    def to_dict(self) -> dict:
        ordered = {name: self.phases[name] for name in PHASES
                   if name in self.phases}
        for name in sorted(self.phases):
            ordered.setdefault(name, self.phases[name])
        out = {"phases": ordered, "counters": dict(self.counters)}
        if self.plan_source is not None:
            out["plan_source"] = self.plan_source
        if self.fold_status is not None:
            out["fold_status"] = self.fold_status
        return out


def render_profile(profile: dict) -> str:
    """One-line rendering of a :meth:`PipelineProfiler.to_dict` payload
    (``SimulationResult.profile``), with the fold status if it has one."""
    parts = [f"{name} {seconds * 1e3:.1f} ms"
             for name, seconds in profile.get("phases", {}).items()]
    counters = profile.get("counters", {})
    line = (f"pipeline: {' | '.join(parts)} | plan "
            f"{profile.get('plan_source', '?')} "
            f"({counters.get('extrapolator_builds', 0)} extrapolator "
            f"build(s), {counters.get('plan_instances', 1)} instance(s))")
    if "fold_status" in profile:
        line += f" | fold {profile['fold_status']}"
    return line
