"""Real-time simulation monitoring (the AkitaRTM analog).

:class:`Monitor` is a hook that records progress records — one per hook
position it observes — and can summarize event throughput.  TrioSim uses
this for its "real-time monitoring" capability; here it also powers the
timeline output of :mod:`repro.core`.
"""

from __future__ import annotations

import time as _wall_time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.engine.hooks import HookCtx


@dataclass(frozen=True)
class ProgressRecord:
    """One observed hook firing."""

    pos: str
    virtual_time: float
    wall_time: float
    item: object
    detail: dict


class Monitor:
    """Hook that accumulates :class:`ProgressRecord` entries.

    Parameters
    ----------
    positions:
        Optional whitelist of hook positions to record; record everything
        when ``None``.
    max_records:
        Bound on stored records (oldest dropped beyond it) so long
        simulations do not exhaust memory.
    """

    def __init__(self, positions: Optional[List[str]] = None, max_records: int = 1_000_000):
        self.positions = set(positions) if positions is not None else None
        self.max_records = max_records
        self.records: List[ProgressRecord] = []
        self.counts: Dict[str, int] = {}
        self._start_wall = _wall_time.perf_counter()

    def func(self, ctx: HookCtx) -> None:
        """Hook entry point."""
        self.counts[ctx.pos] = self.counts.get(ctx.pos, 0) + 1
        if self.positions is not None and ctx.pos not in self.positions:
            return
        if len(self.records) >= self.max_records:
            self.records.pop(0)
        self.records.append(
            ProgressRecord(
                pos=ctx.pos,
                virtual_time=ctx.time,
                wall_time=_wall_time.perf_counter() - self._start_wall,
                item=ctx.item,
                detail=dict(ctx.detail),
            )
        )

    def events_per_second(self) -> float:
        """Wall-clock rate of observed hook firings so far."""
        elapsed = _wall_time.perf_counter() - self._start_wall
        total = sum(self.counts.values())
        return total / elapsed if elapsed > 0 else 0.0

    def summary(self) -> Dict[str, int]:
        """Counts of firings per hook position."""
        return dict(self.counts)
