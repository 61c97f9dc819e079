"""Tests for repro.engine.events."""

import pytest

from repro.engine.engine import Engine
from repro.engine.events import Event


class _Recorder:
    def __init__(self):
        self.seen = []

    def handle(self, event):
        self.seen.append(event)


class TestEvent:
    def test_stores_time_and_handler(self):
        handler = _Recorder().handle
        ev = Event(1.5, handler, payload={"x": 1})
        assert ev.time == 1.5
        assert ev.callback == handler
        assert ev.payload == {"x": 1}

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            Event(-0.1, _Recorder().handle)

    def test_zero_time_allowed(self):
        assert Event(0.0, _Recorder().handle).time == 0.0

    def test_not_cancelled_initially(self):
        assert not Event(1.0, _Recorder().handle).cancelled

    def test_cancel_marks_event(self):
        ev = Event(1.0, _Recorder().handle)
        ev.cancel()
        assert ev.cancelled

    def test_time_coerced_to_float(self):
        assert isinstance(Event(1, _Recorder().handle).time, float)

    def test_handler_satisfies_protocol(self):
        # A handler object plugs in through its bound method: the engine
        # calls the callback with the event itself.
        recorder = _Recorder()
        eng = Engine()
        ev = eng.schedule(Event(1.0, recorder.handle))
        eng.run()
        assert recorder.seen == [ev]

    def test_invokes_callable(self):
        calls = []
        ev = Event(2.0, lambda e: calls.append(e))
        ev.callback(ev)
        assert calls == [ev]

    def test_payload_carried(self):
        eng = Engine()
        seen = []
        eng.schedule(Event(0.5, lambda e: seen.append(e.payload), payload=42))
        eng.run()
        assert seen == [42]
