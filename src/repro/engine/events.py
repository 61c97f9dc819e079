"""The one event type of the simulation engine.

An event is a piece of work that happens at a specific virtual time.  The
engine orders events by time (ties broken by insertion order, making runs
deterministic) and dispatches each one by calling its callback.
"""

from __future__ import annotations

from typing import Callable


class Event:
    """A unit of future work in virtual time::

        engine.schedule(Event(t, lambda ev: do_something()))

    Parameters
    ----------
    time:
        The virtual time (seconds) at which the event fires.
    callback:
        Called as ``callback(event)`` when the event is dispatched.
    payload:
        Optional arbitrary data carried by the event (a row id, a flow
        slot, ...), so hot paths pass one shared bound method instead of
        allocating a closure per event.
    """

    __slots__ = ("time", "callback", "payload", "cancelled", "_seq", "_engine")

    def __init__(self, time: float, callback: Callable[["Event"], None],
                 payload=None):
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = float(time)
        self.callback = callback
        self.payload = payload
        self.cancelled = False
        self._seq = -1  # assigned by the engine at schedule time
        self._engine = None  # back-reference while queued, for accounting

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Cancellation is O(1); the event stays in the queue but is discarded
        at dispatch time.  The owning engine is notified so it can compact
        its queue once cancelled entries dominate (long sweeps would
        otherwise bloat memory).
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} cb={self.callback!r}{state}>"
