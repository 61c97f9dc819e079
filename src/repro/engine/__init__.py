"""Event-driven simulation engine (Akita analog).

The engine is the substrate every other subsystem builds on.  It provides:

* :class:`~repro.engine.events.Event` — a unit of future work: a virtual
  time, a ``callback(event)`` and an optional payload.
* :class:`~repro.engine.engine.Engine` — the event kernel: a priority queue
  of events, a virtual clock, one run loop, and one list of dispatch
  observers (``add_observer`` / ``remove_observer``) through which the
  sanitizers, race detectors and heartbeats watch that loop.
* :class:`~repro.engine.hooks.Hook` — named observation points that the
  task-graph simulator, the flow network (:class:`~repro.network.flow.
  FlowNetwork`) and the sweep runner fire (the AkitaRTM / Daisen
  analog); any object with a ``func(ctx)`` method observes them.

Network models plug in through :mod:`repro.network.base`'s ``send``
contract, not through message-passing components.
"""

from repro.engine.engine import Engine
from repro.engine.events import Event
from repro.engine.hooks import Hook, HookCtx, Hookable

__all__ = [
    "Engine",
    "Event",
    "Hook",
    "HookCtx",
    "Hookable",
]
