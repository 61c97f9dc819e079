"""Simulation results: totals, breakdowns, and the timeline.

TrioSim "can return the total predicted execution time ... the
communication time and computation time of each layer or stage ... [and]
the timeline of the communication process among GPUs or the computation
process on each GPU" (paper §4.1).  :class:`SimulationResult` carries all
of that plus simulator performance counters (Figure 14).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional

#: Version of the serialized result format.  Part of every cache key, so
#: a schema change silently invalidates old cache entries instead of
#: returning mis-shaped results.  v2 added the ``profile`` pipeline
#: breakdown; v3 added the ``network`` routing/congestion summary (v2
#: payloads still load, with an empty summary).
RESULT_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class TimelineRecord:
    """One completed task on the simulated timeline."""

    name: str
    kind: str            # "compute" | "transfer" | "barrier"
    resource: str        # GPU name, or "src->dst" for transfers
    start: float
    end: float
    phase: Optional[str] = None
    layer: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TimelineRecord":
        return cls(**data)


@dataclass
class SimulationResult:
    """Output of one TrioSim run.

    ``compute_time`` and ``communication_time`` are aggregate busy times
    (summed across GPUs / transfers); ``total_time`` is the simulated
    end-to-end iteration time.  ``per_layer`` maps layer name to its total
    compute time across GPUs and ``per_phase`` per training phase; both,
    like ``timeline`` (every compute and transfer task in finish order),
    are filled only by ``record_timeline=True`` runs.  ``wall_time`` and
    ``events`` report the simulator's own performance (paper Figure 14).
    ``profile`` is the
    pipeline profiler's per-phase wall breakdown and counters (see
    ``docs/plans.md``); like ``wall_time`` it describes *how* the result
    was produced, so bit-identity comparisons exclude it.  ``network``
    is the flow network's routing/congestion summary — per-link bytes,
    flows, peak concurrency and utilization, flow-completion-time stats,
    and the per-pair path choices on multi-path fabrics (see
    ``docs/network.md``); it is deterministic simulation content and
    *included* in bit-identity comparisons.
    """

    total_time: float
    compute_time: float
    communication_time: float
    per_gpu_busy: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    per_phase: Dict[str, float] = field(default_factory=dict)
    timeline: List[TimelineRecord] = field(default_factory=list)
    wall_time: float = 0.0
    events: int = 0
    iteration_times: List[float] = field(default_factory=list)
    profile: dict = field(default_factory=dict)
    network: dict = field(default_factory=dict)

    @property
    def communication_ratio(self) -> float:
        """Communication share of total busy time (paper Figure 13)."""
        busy = self.compute_time + self.communication_time
        return self.communication_time / busy if busy > 0 else 0.0

    def summary(self) -> str:
        return (
            f"total {self.total_time * 1e3:.2f} ms | "
            f"compute {self.compute_time * 1e3:.2f} ms | "
            f"comm {self.communication_time * 1e3:.2f} ms "
            f"({self.communication_ratio * 100:.1f}%) | "
            f"simulated in {self.wall_time * 1e3:.0f} ms wall, "
            f"{self.events} events"
        )

    # ------------------------------------------------------------------
    # Serialization — the single codepath shared by the CLI, the
    # experiments harness, and the sweep service's result cache.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "total_time": self.total_time,
            "compute_time": self.compute_time,
            "communication_time": self.communication_time,
            "per_gpu_busy": dict(self.per_gpu_busy),
            "per_layer": dict(self.per_layer),
            "per_phase": dict(self.per_phase),
            "timeline": [r.to_dict() for r in self.timeline],
            "wall_time": self.wall_time,
            "events": self.events,
            "iteration_times": list(self.iteration_times),
            "profile": dict(self.profile),
            "network": dict(self.network),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        version = data.get("schema_version")
        # v2 payloads (pre-``network``) still load; the summary is simply
        # absent, which the empty-dict default represents.
        if version not in (2, RESULT_SCHEMA_VERSION):
            raise ValueError(f"unsupported result schema version {version}")
        return cls(
            total_time=data["total_time"],
            compute_time=data["compute_time"],
            communication_time=data["communication_time"],
            per_gpu_busy=dict(data["per_gpu_busy"]),
            per_layer=dict(data["per_layer"]),
            per_phase=dict(data["per_phase"]),
            timeline=[TimelineRecord.from_dict(r) for r in data["timeline"]],
            wall_time=data["wall_time"],
            events=data["events"],
            iteration_times=list(data["iteration_times"]),
            profile=dict(data.get("profile") or {}),
            network=dict(data.get("network") or {}),
        )

    def to_json(self) -> str:
        """Serialize to a JSON string (floats round-trip bit-exactly)."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SimulationResult":
        return cls.from_dict(json.loads(text))
