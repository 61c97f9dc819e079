"""The dispatch circuit breaker of the sweep service.

A deterministic, count-based failure-rate breaker that
:class:`~repro.service.runner.SweepRunner` consults before each point
reaches a worker (see ``docs/resilience.md``).
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.service.worker import TIMEOUT_KIND


class CircuitBreaker:
    """Sliding-window failure-rate circuit breaker for point dispatch.

    Protects a sweep from feeding every remaining point to a dying
    substrate (an OOM-looping machine, a poisoned worker image): once the
    crash/timeout rate over the last :attr:`window` dispatched points
    reaches :attr:`threshold`, the breaker *trips open* and subsequent
    points fail fast as ``SweepError(kind="CircuitOpen")`` without
    touching a worker.  While open, every :attr:`probe_interval`-th
    admission attempt is let through as a *half-open probe*: a probe that
    succeeds closes the breaker (dispatch resumes normally, window
    cleared); a probe that fails reopens it.

    Only infrastructure failures count against the breaker
    (:attr:`FAILURE_KINDS`: worker crashes and deadline overruns) — a
    point that fails on its own config (lint, verify, simulation error)
    says nothing about the substrate's health.

    Deterministic by construction: every transition is driven by counts
    of recorded outcomes and skipped admissions, never by wall-clock
    time, so breaker behaviour in tests and replays is exactly
    reproducible.
    """

    #: Error kinds that count as substrate failures.
    FAILURE_KINDS = frozenset({"WorkerCrashed", TIMEOUT_KIND})

    def __init__(self, window: int = 16, threshold: float = 0.5,
                 min_samples: int = 4, probe_interval: int = 4):
        if window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if probe_interval < 1:
            raise ValueError("probe_interval must be >= 1")
        self.window = window
        self.threshold = threshold
        self.min_samples = min_samples
        self.probe_interval = probe_interval
        #: True entries are failures; bounded sliding window.
        self._outcomes: deque = deque(maxlen=window)
        self.state = "closed"          # closed | open | half_open
        self.trips = 0
        self.last_failure_kind: Optional[str] = None
        self._skips_since_open = 0

    @property
    def failure_rate(self) -> float:
        """Failure fraction over the current window (0.0 when empty)."""
        if not self._outcomes:
            return 0.0
        return sum(self._outcomes) / len(self._outcomes)

    def admit(self) -> bool:
        """May the next point be dispatched?  (May transition to probe.)

        Closed: always.  Half-open: no — exactly one probe flies at a
        time.  Open: fail fast, except that every
        :attr:`probe_interval`-th attempt becomes the half-open probe and
        is admitted.
        """
        if self.state == "closed":
            return True
        if self.state == "half_open":
            return False
        self._skips_since_open += 1
        if self._skips_since_open >= self.probe_interval:
            self.state = "half_open"
            return True
        return False

    def record_success(self) -> None:
        """A dispatched point completed (or failed on its own config)."""
        if self.state == "half_open":
            # The probe came back healthy: close and forget the storm.
            self.state = "closed"
            self._outcomes.clear()
            self._skips_since_open = 0
            return
        self._outcomes.append(False)

    def record_failure(self, kind: str) -> bool:
        """A dispatched point failed as *kind*; True when this tripped.

        Kinds outside :attr:`FAILURE_KINDS` are ignored (returns False).
        A half-open probe failure reopens immediately (counted as a
        trip); in the closed state the window must both hold
        :attr:`min_samples` outcomes and cross :attr:`threshold`.
        """
        if kind not in self.FAILURE_KINDS:
            return False
        self.last_failure_kind = kind
        if self.state == "half_open":
            self.state = "open"
            self._skips_since_open = 0
            self.trips += 1
            return True
        self._outcomes.append(True)
        if (self.state == "closed"
                and len(self._outcomes) >= self.min_samples
                and self.failure_rate >= self.threshold):
            self.state = "open"
            self._skips_since_open = 0
            self.trips += 1
            return True
        return False
