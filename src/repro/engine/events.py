"""Events and event handlers for the simulation engine.

An event is a piece of work that happens at a specific virtual time.  The
engine orders events by time (ties broken by insertion order, making runs
deterministic) and dispatches each one to its handler.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol, runtime_checkable


class Event:
    """A unit of future work in virtual time.

    Parameters
    ----------
    time:
        The virtual time (seconds) at which the event fires.
    handler:
        The object whose :meth:`EventHandler.handle` is invoked.
    payload:
        Optional arbitrary data carried by the event.
    """

    __slots__ = ("time", "handler", "payload", "cancelled", "_seq", "_engine")

    def __init__(self, time: float, handler: "EventHandler", payload=None):
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = float(time)
        self.handler = handler
        self.payload = payload
        self.cancelled = False
        self._seq = -1  # assigned by the engine at schedule time
        self._engine = None  # back-reference while queued, for accounting

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped.

        Cancellation is O(1); the event stays in the queue but is discarded
        at dispatch time.  This is how in-flight network deliveries are
        rescheduled when bandwidth shares change.  The owning engine is
        notified so it can compact its queue once cancelled entries
        dominate (long sweeps would otherwise bloat memory).
        """
        if self.cancelled:
            return
        self.cancelled = True
        if self._engine is not None:
            self._engine._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time:.9f} handler={self.handler!r}{state}>"


@runtime_checkable
class EventHandler(Protocol):
    """Anything that can be the target of an :class:`Event`."""

    def handle(self, event: Event) -> None:
        """React to *event* firing at its scheduled time."""


class _CallbackHandler:
    """Calls a :class:`CallbackEvent`'s own callback.

    Every callback event shares this one handler.  Pointing ``handler`` at
    the event itself would make each event a reference cycle, keeping its
    callback's closure (usually a whole simulator and its task store)
    alive until the cyclic garbage collector happens to run.
    """

    __slots__ = ()

    def handle(self, event: Any) -> None:
        event._callback(event)


_CALLBACK_HANDLER = _CallbackHandler()


class CallbackEvent(Event):
    """An event that invokes a plain callable instead of a handler object.

    Convenient for one-off continuations::

        engine.schedule(CallbackEvent(t, lambda ev: do_something()))

    Hot paths (flow delivery timers) create millions of these, so they
    share one stateless handler instead of allocating an adapter each.
    """

    __slots__ = ("_callback",)

    def __init__(self, time: float, callback: Callable[[Event], None], payload=None):
        # Event.__init__ inlined: hot paths allocate one of these per
        # dispatched event, and the extra constructor frame is measurable.
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        self.time = float(time)
        self.handler = _CALLBACK_HANDLER
        self.payload = payload
        self.cancelled = False
        self._seq = -1
        self._engine = None
        self._callback = callback

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<CallbackEvent t={self.time:.9f} cb={self._callback!r}{state}>"
