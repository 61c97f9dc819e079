"""What a sweep produces: per-point outcomes, errors, live metrics, and
the lifecycle states a point moves through on its way to an outcome.

:class:`~repro.service.runner.SweepRunner` creates one
:class:`SweepOutcome` per point and drives it through
:class:`PointState`; every field here is plain data, safe to hand to
observers, the CLI, and JSON writers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional

from repro.core.config import SimulationConfig
from repro.core.results import SimulationResult


class PointState(Enum):
    """Where one sweep point is in its lifecycle.

    ::

        queued ─┬─► admitted ─► dispatched ─┬─► done | failed
                │                           │
                │                           └─► crashed ─► isolated-retry ─┬─► done | failed
                │                                  (repeats up to          │
                │                                   MAX_CRASH_RETRIES)     └─► rescue ─► done | failed
                │
                └─► done | failed  (pre-dispatch: replayed from the journal,
                                    cache hit, VerifyError, or refused
                                    admission as CircuitOpen)

    ``done``, ``failed`` and ``interrupted`` are terminal, and every
    other state may move to ``interrupted`` (Ctrl-C).  The legal moves
    are ``repro.service.runner._NEXT_STATES``;
    :meth:`~repro.service.runner.SweepRunner._advance` is the only code
    that performs them.
    """

    QUEUED = "queued"
    ADMITTED = "admitted"
    DISPATCHED = "dispatched"
    CRASHED = "crashed"
    RETRY = "isolated-retry"
    RESCUE = "rescue"
    DONE = "done"
    FAILED = "failed"
    INTERRUPTED = "interrupted"


#: States a point never leaves.
TERMINAL_STATES = frozenset({PointState.DONE, PointState.FAILED,
                             PointState.INTERRUPTED})


@dataclass(frozen=True)
class SweepError:
    """Structured record of one failed sweep point."""

    kind: str        # taxonomy name, e.g. "PointTimeout", "WorkerCrashed"
    message: str
    traceback: str = ""
    #: Structured context — e.g. a soft timeout's partial progress
    #: (elapsed wall time, events dispatched, simulated_time reached).
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = {"kind": self.kind, "message": self.message,
                "traceback": self.traceback}
        if self.detail:
            data["detail"] = dict(self.detail)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SweepError":
        return cls(**data)


class SweepPointError(RuntimeError):
    """Raised by :meth:`SweepOutcome.unwrap` for a failed point."""

    def __init__(self, error: SweepError):
        super().__init__(f"{error.kind}: {error.message}\n{error.traceback}")
        self.error = error


@dataclass
class SweepOutcome:
    """Result (or failure) of one sweep point, in input order."""

    index: int
    config: SimulationConfig
    label: str = ""
    result: Optional[SimulationResult] = None
    error: Optional[SweepError] = None
    cached: bool = False
    #: Verifier findings (``SZ``/``RC``/``DV``, dict form) when the
    #: runner verifies.
    sanitizer_findings: List[dict] = field(default_factory=list)
    #: Isolated re-executions this point needed after its worker died.
    retries: int = 0
    #: Replayed from a resume journal instead of being re-simulated.
    resumed: bool = False
    #: Recovered by the last graceful-degradation rung (in-process, no
    #: pool) after every isolated retry crashed its worker.
    degraded: bool = False
    #: Lifecycle position; only :meth:`SweepRunner._advance` moves it.
    state: PointState = PointState.QUEUED

    @property
    def ok(self) -> bool:
        return self.result is not None

    def unwrap(self) -> SimulationResult:
        """The result, or raise :class:`SweepPointError`."""
        if self.result is None:
            raise SweepPointError(
                self.error or SweepError("Unknown", "point produced no result")
            )
        return self.result

    def to_dict(self) -> dict:
        """JSON-safe summary (the CLI's sweep output codepath)."""
        return {
            "index": self.index,
            "label": self.label,
            "config": self.config.to_dict(),
            "cached": self.cached,
            "result": self.result.to_dict() if self.result else None,
            "error": self.error.to_dict() if self.error else None,
            "sanitizer_findings": list(self.sanitizer_findings),
            "retries": self.retries,
            "resumed": self.resumed,
            "degraded": self.degraded,
        }


@dataclass
class SweepMetrics:
    """Live counters, shown to the runner's point observers as
    :meth:`detail`."""

    total: int = 0
    completed: int = 0
    cache_hits: int = 0
    errors: int = 0
    fresh_events: int = 0     # engine events dispatched for non-cached points
    elapsed: float = 0.0
    retries: int = 0          # isolated re-executions after worker crashes
    worker_crashes: int = 0   # points abandoned as WorkerCrashed
    plan_builds: int = 0      # extrapolator graph builds actually performed
    plan_cache_hits: int = 0  # fresh points served by a cached plan
    timeouts: int = 0         # points cut down as PointTimeout (either kind)
    circuit_trips: int = 0    # breaker transitions into the open state
    circuit_skips: int = 0    # points failed fast as CircuitOpen
    interrupted: int = 0      # points marked Interrupted by Ctrl-C
    resumed: int = 0          # points replayed from a resume journal
    degraded_recoveries: int = 0  # crash victims saved by the in-process rung

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.completed if self.completed else 0.0

    @property
    def events_per_sec(self) -> float:
        return self.fresh_events / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def eta_seconds(self) -> Optional[float]:
        """Projected seconds to finish, or ``None`` before any completion.

        ``None`` (serialized ``null``), not ``NaN`` — ``json.dumps``
        renders ``NaN`` bare, which is not JSON and which strict
        consumers reject.
        """
        if not self.completed:
            return None
        remaining = self.total - self.completed
        return remaining * (self.elapsed / self.completed)

    @staticmethod
    def _json_safe(value: Optional[float]) -> Optional[float]:
        """Non-finite floats become ``None`` so detail() is valid JSON."""
        if value is None or value != value or value in (
                float("inf"), float("-inf")):
            return None
        return value

    def detail(self) -> dict:
        return {
            "completed": self.completed,
            "total": self.total,
            "cache_hits": self.cache_hits,
            "hit_rate": self._json_safe(self.hit_rate),
            "errors": self.errors,
            "retries": self.retries,
            "worker_crashes": self.worker_crashes,
            "plan_builds": self.plan_builds,
            "plan_cache_hits": self.plan_cache_hits,
            "timeouts": self.timeouts,
            "circuit_trips": self.circuit_trips,
            "circuit_skips": self.circuit_skips,
            "interrupted": self.interrupted,
            "resumed": self.resumed,
            "degraded_recoveries": self.degraded_recoveries,
            "fresh_events": self.fresh_events,
            "events_per_sec": self._json_safe(self.events_per_sec),
            "eta_seconds": self._json_safe(self.eta_seconds),
            "elapsed": self.elapsed,
        }
