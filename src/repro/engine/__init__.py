"""Event-driven simulation engine (Akita analog).

The engine is the substrate every other subsystem builds on.  It provides:

* :class:`~repro.engine.events.Event` — a unit of future work: a virtual
  time, a ``callback(event)`` and an optional payload.
* :class:`~repro.engine.engine.Engine` — the event kernel: a priority queue
  of events, a virtual clock, one run loop, and one list of dispatch
  observers (``add_observer`` / ``remove_observer``) through which the
  sanitizers, race detectors and heartbeats watch that loop.

Other layers are observed the same way, through plain callables: the
flow network calls its reallocation and allocator-warning observers,
and the sweep runner calls its point observers.

Network models plug in through :mod:`repro.network.base`'s ``send``
contract, not through message-passing components.
"""

from repro.engine.engine import Engine
from repro.engine.events import Event

__all__ = [
    "Engine",
    "Event",
]
