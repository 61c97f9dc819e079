"""Declarative sweep specifications (the ``repro sweep`` input format).

A sweep spec is a JSON document naming the input trace and the region of
the design space to cover: a ``base`` config plus ``axes`` whose values
are cross-producted::

    {
      "trace": "rn50.json",
      "base":  {"parallelism": "ddp", "gpu": "A100"},
      "axes":  {"num_gpus": [2, 4, 8],
                "link_bandwidth": [25e9, 100e9, 234e9]},
      "workers": 4,
      "cache_dir": ".repro-cache",
      "journal_dir": ".repro-journal",
      "deadline_soft": 60,
      "deadline_hard": 120,
      "breaker": {"window": 16, "threshold": 0.5}
    }

Instead of ``trace`` (a path), a spec may name a zoo ``model`` (plus
optional ``gpu``/``batch``/``seq_len``) and the trace is collected with
the built-in :class:`~repro.trace.tracer.Tracer`.  Axis order follows the
spec file, and points expand in row-major (last axis fastest) order, so a
spec always produces the same points in the same order.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import SimulationConfig
from repro.service.breaker import CircuitBreaker
from repro.trace.trace import Trace

_TOP_LEVEL_KEYS = {
    "trace", "model", "gpu", "batch", "seq_len",
    "base", "axes", "workers", "cache_dir",
    "journal_dir", "deadline_soft", "deadline_hard", "breaker",
}


@dataclass
class SweepSpec:
    """A parsed sweep specification."""

    base: dict = field(default_factory=dict)
    axes: Dict[str, list] = field(default_factory=dict)
    trace_path: Optional[str] = None
    model: Optional[str] = None
    gpu: str = "A100"
    batch: Optional[int] = None
    seq_len: Optional[int] = None
    workers: Optional[int] = None
    cache_dir: Optional[str] = None
    #: Directory for the crash-safe write-ahead journal
    #: (``docs/resilience.md``); ``None`` disables journaling.
    journal_dir: Optional[str] = None
    #: Per-point deadline budgets (seconds): cooperative soft stop and
    #: hard kill.
    deadline_soft: Optional[float] = None
    deadline_hard: Optional[float] = None
    #: Dispatch circuit breaker: ``True`` for defaults, or a dict of
    #: :class:`~repro.service.runner.CircuitBreaker` keyword arguments
    #: (``window``, ``threshold``, ``min_samples``, ``probe_interval``).
    breaker: Union[bool, dict, None] = None

    def __post_init__(self):
        if (self.trace_path is None) == (self.model is None):
            raise ValueError(
                "a sweep spec needs exactly one trace source: "
                "'trace' (a file) or 'model' (a zoo workload)"
            )
        for axis, values in self.axes.items():
            if not isinstance(values, list) or not values:
                raise ValueError(
                    f"axis {axis!r} must map to a non-empty list"
                )
        for name in ("deadline_soft", "deadline_hard"):
            value = getattr(self, name)
            if value is not None and float(value) <= 0:
                raise ValueError(f"{name} must be positive (or null)")
        if (self.deadline_soft is not None and self.deadline_hard is not None
                and self.deadline_soft > self.deadline_hard):
            raise ValueError("deadline_soft must not exceed deadline_hard")
        if not isinstance(self.breaker, (bool, dict, type(None))):
            raise ValueError(
                "breaker must be true, false, null, or an object of "
                "CircuitBreaker settings"
            )
        if isinstance(self.breaker, dict):
            # Fail at load, not at dispatch: a misspelled or out-of-range
            # setting must not pass as a clean spec.
            try:
                CircuitBreaker(**self.breaker)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"invalid breaker settings: {exc}") from None
        # Fail early on typos: every point must build a valid config.
        self.expand()

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        unknown = set(data) - _TOP_LEVEL_KEYS
        if unknown:
            raise ValueError(f"unknown sweep spec keys: {sorted(unknown)}")
        return cls(
            base=dict(data.get("base", {})),
            axes=dict(data.get("axes", {})),
            trace_path=data.get("trace"),
            model=data.get("model"),
            gpu=data.get("gpu", "A100"),
            batch=data.get("batch"),
            seq_len=data.get("seq_len"),
            workers=data.get("workers"),
            cache_dir=data.get("cache_dir"),
            journal_dir=data.get("journal_dir"),
            deadline_soft=data.get("deadline_soft"),
            deadline_hard=data.get("deadline_hard"),
            breaker=data.get("breaker"),
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepSpec":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    # Expansion
    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    def expand(self) -> List[Tuple[str, SimulationConfig]]:
        """The cross-product as ``(label, config)`` pairs, in spec order.

        Every point goes through :meth:`SimulationConfig.from_dict`, so an
        invalid combination (or a misspelled axis name) raises the same
        ``ValueError`` a direct construction would.
        """
        names = list(self.axes)
        points = []
        for combo in itertools.product(*(self.axes[n] for n in names)):
            overrides = dict(zip(names, combo))
            config = SimulationConfig.from_dict({**self.base, **overrides})
            label = ",".join(f"{n}={v}" for n, v in overrides.items())
            points.append((label or "base", config))
        return points

    # ------------------------------------------------------------------
    # Trace acquisition
    # ------------------------------------------------------------------
    def load_trace(self, base_dir: Union[str, Path, None] = None) -> Trace:
        """The spec's input trace: loaded from disk or freshly collected.

        Relative ``trace`` paths resolve against *base_dir* (typically the
        spec file's directory).
        """
        if self.trace_path is not None:
            path = Path(self.trace_path)
            if base_dir is not None and not path.is_absolute():
                path = Path(base_dir) / path
            return Trace.load(path)
        from repro.gpus.specs import get_gpu
        from repro.trace.tracer import Tracer
        from repro.workloads.registry import get_model

        model = get_model(self.model, seq_len=self.seq_len) \
            if self.seq_len else get_model(self.model)
        batch = self.batch or 128
        return Tracer(get_gpu(self.gpu)).trace(model, batch)
