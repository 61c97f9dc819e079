"""The sweep service: parallel, cached design-space exploration.

Built on the serializable config/result API (:meth:`SimulationConfig.to_dict`
/ :meth:`SimulationResult.to_json`), the service turns TrioSim from a
one-point simulator into a sweep engine: fan configs over worker processes,
cache every result by content, dedup shared preparation work, and keep
going when individual points fail.
"""

from repro.service.cache import ResultCache, trace_digest
from repro.service.journal import (
    JournalMismatchError,
    JournalState,
    SweepJournal,
    check_resume,
    sweep_fingerprint,
)
from repro.service.runner import (
    CircuitBreaker,
    PointState,
    SweepError,
    SweepMetrics,
    SweepOutcome,
    SweepPointError,
    SweepRunner,
)
from repro.service.spec import SweepSpec
from repro.service.worker import PointSoftTimeoutError, PointTimeoutError

__all__ = [
    "CircuitBreaker",
    "JournalMismatchError",
    "JournalState",
    "PointState",
    "PointSoftTimeoutError",
    "PointTimeoutError",
    "ResultCache",
    "SweepError",
    "SweepJournal",
    "SweepMetrics",
    "SweepOutcome",
    "SweepPointError",
    "SweepRunner",
    "SweepSpec",
    "check_resume",
    "sweep_fingerprint",
    "trace_digest",
]
