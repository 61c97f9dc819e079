"""Tests for the event kernel (repro.engine.engine)."""

import pytest

from repro.core import simulator
from repro.core.simulator import heartbeat_observer
from repro.engine.engine import Engine, SimulationLimitError


def test_starts_at_time_zero():
    assert Engine().now == 0.0


def test_run_empty_queue_returns_zero():
    assert Engine().run() == 0.0


def test_events_dispatch_in_time_order():
    eng = Engine()
    order = []
    eng.call_at(3.0, lambda e: order.append(3))
    eng.call_at(1.0, lambda e: order.append(1))
    eng.call_at(2.0, lambda e: order.append(2))
    eng.run()
    assert order == [1, 2, 3]


def test_ties_break_by_insertion_order():
    eng = Engine()
    order = []
    for i in range(10):
        eng.call_at(1.0, lambda e, i=i: order.append(i))
    eng.run()
    assert order == list(range(10))


def test_clock_advances_to_event_time():
    eng = Engine()
    times = []
    eng.call_at(2.5, lambda e: times.append(eng.now))
    eng.run()
    assert times == [2.5]
    assert eng.now == 2.5


def test_handler_can_schedule_more_events():
    eng = Engine()
    seen = []

    def first(_ev):
        eng.call_after(1.0, lambda e: seen.append(eng.now))

    eng.call_at(1.0, first)
    eng.run()
    assert seen == [2.0]


def test_cannot_schedule_in_the_past():
    eng = Engine()
    eng.call_at(5.0, lambda e: None)
    eng.run()
    with pytest.raises(ValueError):
        eng.call_at(1.0, lambda e: None)


def test_call_after_negative_delay_rejected():
    with pytest.raises(ValueError):
        Engine().call_after(-1.0, lambda e: None)


def test_cancelled_events_are_skipped():
    eng = Engine()
    seen = []
    ev = eng.call_at(1.0, lambda e: seen.append("cancelled"))
    eng.call_at(2.0, lambda e: seen.append("kept"))
    ev.cancel()
    eng.run()
    assert seen == ["kept"]


def test_cancel_inside_handler_prevents_later_event():
    eng = Engine()
    seen = []
    later = eng.call_at(2.0, lambda e: seen.append("later"))
    eng.call_at(1.0, lambda e: later.cancel())
    eng.run()
    assert seen == []


def test_run_until_stops_before_future_events():
    eng = Engine()
    seen = []
    eng.call_at(1.0, lambda e: seen.append(1))
    eng.call_at(10.0, lambda e: seen.append(10))
    final = eng.run(until=5.0)
    assert seen == [1]
    assert final == 5.0
    eng.run()
    assert seen == [1, 10]


def test_run_until_advances_clock_when_queue_empty():
    eng = Engine()
    assert eng.run(until=7.0) == 7.0
    assert eng.now == 7.0


def test_dispatched_event_count():
    eng = Engine()
    for i in range(5):
        eng.call_at(float(i), lambda e: None)
    eng.run()
    assert eng.dispatched_events == 5


def test_max_events_guard():
    eng = Engine(max_events=10)

    def loop(_ev):
        eng.call_after(1.0, loop)

    eng.call_at(0.0, loop)
    with pytest.raises(SimulationLimitError):
        eng.run()


def test_reset_clears_state():
    eng = Engine()
    eng.call_at(1.0, lambda e: None)
    eng.run()
    eng.reset()
    assert eng.now == 0.0
    assert eng.pending_events == 0
    assert eng.dispatched_events == 0
    eng.call_at(0.5, lambda e: None)  # schedulable again at early times
    eng.run()


def test_deterministic_across_runs():
    def simulate():
        eng = Engine()
        order = []
        for i in range(50):
            eng.call_at((i * 7) % 5 + 0.5, lambda e, i=i: order.append(i))
        eng.run()
        return order

    assert simulate() == simulate()


def test_observers_fire_before_each_callback():
    eng = Engine()
    calls = []

    def first(time, seq, event):
        calls.append(("first", time, seq, eng.dispatched_events))

    def second(time, seq, event):
        calls.append(("second", time, seq, eng.now))

    eng.add_observer(first)
    eng.add_observer(second)
    eng.call_at(1.0, lambda e: calls.append(("callback", e.time)))
    eng.run()
    # In order of addition, after the clock and the dispatch count
    # advance, and before the callback runs.
    assert calls == [("first", 1.0, 0, 1), ("second", 1.0, 0, 1.0),
                     ("callback", 1.0)]
    eng.remove_observer(first)
    eng.remove_observer(second)
    calls.clear()
    eng.call_at(2.0, lambda e: calls.append(("callback", e.time)))
    eng.run()
    assert calls == [("callback", 2.0)]


def test_cancelled_and_requeued_entries_are_never_observed():
    eng = Engine()
    seen = []
    eng.add_observer(lambda t, s, e: seen.append((t, s)))
    eng.call_at(1.0, lambda e: None).cancel()
    moved = eng.call_at(2.0, lambda e: None)
    eng.mark_requeued(moved)
    moved.time = 3.0
    eng.schedule(moved)
    eng.run()
    assert seen == [(3.0, 2)]


# ----------------------------------------------------------------------
# Cancelled-event accounting and heap compaction
# ----------------------------------------------------------------------


def test_pending_events_excludes_cancelled():
    eng = Engine()
    events = [eng.call_at(float(i + 1), lambda e: None) for i in range(10)]
    assert eng.pending_events == 10
    for ev in events[:4]:
        ev.cancel()
    assert eng.pending_events == 6


def test_compaction_purges_dead_heap_entries():
    from repro.engine.engine import COMPACT_FLOOR

    eng = Engine()
    count = COMPACT_FLOOR * 2
    events = [eng.call_at(float(i + 1), lambda e: None)
              for i in range(count)]
    # Cancel a majority (past the floor): the heap must shrink, not just
    # hide them.
    for ev in events[:count // 2 + 1]:
        ev.cancel()
    assert eng.pending_events == count // 2 - 1
    assert len(eng._queue) == count // 2 - 1
    assert eng.compactions == 1


def test_small_queues_never_churn_through_compaction():
    # Satellite regression: a majority of cancelled entries in a *small*
    # queue must not trigger a heap rebuild — below the floor, lazy
    # skipping at dispatch time is cheaper than re-heapifying.
    eng = Engine()
    events = [eng.call_at(float(i + 1), lambda e: None) for i in range(10)]
    for ev in events[:6]:
        ev.cancel()
    assert eng.pending_events == 4
    assert len(eng._queue) == 10   # dead entries remain, harmlessly
    assert eng.compactions == 0    # the churn counter assertion
    eng.run()
    assert eng.pending_events == 0


def test_cancelled_events_do_not_fire():
    eng = Engine()
    fired = []
    keep = eng.call_at(1.0, lambda e: fired.append("keep"))
    drop = eng.call_at(2.0, lambda e: fired.append("drop"))
    drop.cancel()
    eng.run()
    assert fired == ["keep"]
    assert keep.cancelled is False
    assert eng.pending_events == 0


def test_double_cancel_is_idempotent():
    eng = Engine()
    events = [eng.call_at(float(i + 1), lambda e: None) for i in range(4)]
    events[0].cancel()
    events[0].cancel()   # must not corrupt the cancelled counter
    assert eng.pending_events == 3
    eng.run()
    assert eng.pending_events == 0


def test_cancel_after_dispatch_is_harmless():
    eng = Engine()
    seen = []
    ev = eng.call_at(1.0, lambda e: seen.append(1))
    eng.run()
    ev.cancel()   # already dispatched; nothing queued to account for
    assert seen == [1]
    assert eng.pending_events == 0


def test_scheduling_cancelled_event_rejected():
    eng = Engine()
    ev = eng.call_at(1.0, lambda e: None)
    ev.cancel()
    with pytest.raises(ValueError):
        eng.schedule(ev)


def test_mass_cancellation_keeps_queue_bounded():
    # The sweep-service regression: many schedule/cancel cycles must not
    # accumulate dead entries in the heap.
    from repro.engine.engine import COMPACT_FLOOR

    eng = Engine()
    keeper = eng.call_at(1e9, lambda e: None)
    for i in range(1000):
        eng.call_at(float(i + 1), lambda e: None).cancel()
    assert eng.pending_events == 1
    # Dead entries are bounded by the compaction floor, not by the total
    # number of cancellations (1000 here).
    assert len(eng._queue) <= COMPACT_FLOOR + 1
    assert not keeper.cancelled


def test_total_cancelled_accumulates_across_compactions():
    eng = Engine()
    for i in range(100):
        eng.call_at(float(i + 1), lambda e: None).cancel()
    # Compactions reset the *internal* dead-entry counter, but the churn
    # metric keeps accumulating.
    assert eng.compactions >= 1
    assert eng.total_cancelled == 100


def test_cancel_after_dispatch_not_counted_as_churn():
    eng = Engine()
    ev = eng.call_at(1.0, lambda e: None)
    eng.run()
    ev.cancel()
    assert eng.total_cancelled == 0


def test_reset_zeroes_churn_counters():
    eng = Engine()
    for i in range(50):
        eng.call_at(float(i + 1), lambda e: None).cancel()
    assert eng.total_cancelled == 50
    eng.reset()
    assert eng.total_cancelled == 0
    assert eng.compactions == 0


# ----------------------------------------------------------------------
# Bulk scheduling
# ----------------------------------------------------------------------


def _dispatch_order(eng, schedule):
    from repro.engine.events import Event

    order = []
    schedule(eng, [
        Event(t, lambda e, i=i: order.append(i))
        for i, t in enumerate([3.0, 1.0, 2.0, 1.0, 2.0, 0.5])
    ])
    eng.run()
    return order


def test_schedule_bulk_matches_sequential_dispatch_order():
    sequential = _dispatch_order(
        Engine(), lambda eng, evs: [eng.schedule(ev) for ev in evs])
    bulk = _dispatch_order(
        Engine(), lambda eng, evs: eng.schedule_bulk(evs))
    assert bulk == sequential == [5, 1, 3, 2, 4, 0]


def test_schedule_bulk_heapify_path_matches_push_path():
    from repro.engine.events import Event

    # A big batch against a near-empty queue takes the extend+heapify
    # fast path; (time, seq) is a total order, so pop order must match
    # one-by-one pushes exactly.
    times = [float((i * 7919) % 101) for i in range(200)]
    orders = []
    for bulk in (False, True):
        eng = Engine()
        eng.call_at(50.5, lambda e: None)
        order = []
        events = [Event(t, lambda e, i=i: order.append(i))
                  for i, t in enumerate(times)]
        if bulk:
            eng.schedule_bulk(events)
        else:
            for ev in events:
                eng.schedule(ev)
        eng.run()
        orders.append(order)
    assert orders[0] == orders[1]


def test_schedule_bulk_validates_like_schedule():
    from repro.engine.events import Event

    eng = Engine()
    eng.call_at(1.0, lambda e: None)
    eng.run()   # now == 1.0
    with pytest.raises(ValueError):
        eng.schedule_bulk([Event(0.5, lambda e: None)])
    stale = Event(2.0, lambda e: None)
    stale.cancel()
    with pytest.raises(ValueError):
        eng.schedule_bulk([stale])
    eng.schedule_bulk([])   # a no-op, not an error
    assert eng.pending_events == 0


# ----------------------------------------------------------------------
# Bulk-vs-scalar dispatch-digest property (seeded)
# ----------------------------------------------------------------------


_MASK = (1 << 64) - 1


def _fold_digest(dispatches):
    """The verifier's dispatch-order fold over ``(time, seq)`` pairs."""
    digest = 0
    for time, seq in dispatches:
        digest = ((digest * 1000003) ^ hash((time, seq))) & _MASK
    return digest


def _bulk_vs_scalar_dispatches(batch_size, prefill, cancel_most, seed,
                               bulk, observers=1):
    """Dispatch stream for one seeded prefill + batch scenario.

    With ``cancel_most`` the prefill is mostly cancelled — a burst that
    crosses ``COMPACT_FLOOR`` for the larger sizes, so compaction fires
    mid-stream.  The batch under test is then scheduled either via one
    :meth:`Engine.schedule_bulk` call or per-event
    :meth:`Engine.schedule` calls.  The stream is recorded by the event
    callbacks; each of the *observers* dispatch observers must see the
    same stream.
    """
    import random

    from repro.engine.events import Event

    rng = random.Random(seed)
    prefill_times = [rng.uniform(0.0, 10.0) for _ in range(prefill)]
    batch_times = [rng.uniform(0.0, 10.0) for _ in range(batch_size)]
    keep = (set(rng.sample(range(prefill), min(5, prefill)))
            if cancel_most else set(range(prefill)))

    eng = Engine()
    dispatches = []
    seen = [[] for _ in range(observers)]
    for stream in seen:
        eng.add_observer(lambda t, s, e, out=stream: out.append((t, s)))

    def record(event):
        dispatches.append((eng.now, event._seq))

    prefilled = [eng.call_at(t, record) for t in prefill_times]
    for i, ev in enumerate(prefilled):
        if i not in keep:
            ev.cancel()
    events = [Event(t, record) for t in batch_times]
    if bulk:
        eng.schedule_bulk(events)
    else:
        for ev in events:
            eng.schedule(ev)
    eng.run()
    assert all(stream == dispatches for stream in seen)
    return dispatches, len(keep)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("batch_size", [4, 8, 9, 16, 63, 64, 65, 128])
def test_schedule_bulk_digest_equivalence_property(batch_size, seed):
    # Satellite property test: across batch sizes straddling the
    # extend+heapify threshold (>8 entries, 4x the queue) and
    # COMPACT_FLOOR (64), bulk and scalar scheduling must produce
    # identical (time, seq) dispatch streams — and therefore identical
    # verifier digests.  The sparse scenario (batch + 10 prefills, most
    # cancelled — compaction pressure past the floor for the larger
    # sizes) makes batches > 8 take the heapify path; the dense scenario
    # (8x batch live prefills) fails the 4x-queue condition so the same
    # batch sizes take the per-entry push path.  Observing the run (0, 1
    # or 2 dispatch observers) must not change the stream either.
    scenarios = [(batch_size + 10, True), (batch_size * 8 + 10, False)]
    for prefill, cancel_most in scenarios:
        scalar, live = _bulk_vs_scalar_dispatches(
            batch_size, prefill, cancel_most, seed, bulk=False)
        for observers in (0, 1, 2):
            bulk, _ = _bulk_vs_scalar_dispatches(
                batch_size, prefill, cancel_most, seed, bulk=True,
                observers=observers)
            assert bulk == scalar
            assert _fold_digest(bulk) == _fold_digest(scalar)
            assert len(bulk) == batch_size + live


# ----------------------------------------------------------------------
# Requeue-record / compaction window
# ----------------------------------------------------------------------


def test_compaction_during_requeue_window_dispatches_once():
    # Regression: _compact running between mark_requeued and the
    # re-submit must drop the orphaned heap entry *by record*.  Before
    # the fix it kept the entry (the event's stamped seq still matched)
    # while clearing the record, so the event dispatched twice once the
    # re-submit landed — observed as transfer tasks finishing twice in
    # the 128-GPU legacy-allocator benchmark.
    from repro.engine.events import Event

    eng = Engine()
    fired = []
    ev = Event(1.0, lambda e: fired.append(eng.now))
    eng.schedule(ev)
    eng.mark_requeued(ev)
    eng._compact()          # inside the window: entry + record must go
    ev.time = 2.0
    eng.schedule(ev)
    eng.run()
    assert fired == [2.0]


def test_requeue_window_survives_cancellation_pressure():
    # Same window, compaction triggered organically by a cancellation
    # burst rather than called directly.
    from repro.engine.engine import COMPACT_FLOOR
    from repro.engine.events import Event

    eng = Engine()
    fired = []
    ev = Event(1.0, lambda e: fired.append(eng.now))
    eng.schedule(ev)
    eng.mark_requeued(ev)
    for _ in range(COMPACT_FLOOR * 2):
        eng.call_at(5.0, lambda e: None).cancel()
    assert eng.compactions >= 1
    ev.time = 2.0
    eng.schedule(ev)
    eng.run()
    assert fired == [2.0]


def test_reschedule_moves_event_without_double_dispatch():
    eng = Engine()
    fired = []
    ev = eng.call_at(1.0, lambda e: fired.append(eng.now))
    eng.mark_requeued(ev)
    ev.time = 3.0
    eng.schedule(ev)
    eng.run()
    assert fired == [3.0]
    assert eng.total_cancelled == 1   # orphaned entry counts as churn


# ----------------------------------------------------------------------
# Heartbeats
# ----------------------------------------------------------------------


def test_heartbeat_fires_every_n_events(monkeypatch):
    monkeypatch.setattr(simulator, "HEARTBEAT_EVERY", 3)
    eng = Engine()
    beats = []
    eng.add_observer(heartbeat_observer(
        eng, lambda e: beats.append(e.dispatched_events)))
    for i in range(10):
        eng.call_at(float(i), lambda e: None)
    eng.run()
    assert beats == [3, 6, 9]


def test_heartbeat_exception_propagates_out_of_run(monkeypatch):
    monkeypatch.setattr(simulator, "HEARTBEAT_EVERY", 2)

    class Budget(Exception):
        pass

    def beat(engine):
        raise Budget

    eng = Engine()
    ran = []
    eng.add_observer(heartbeat_observer(eng, beat))
    for i in range(5):
        eng.call_at(float(i), lambda e: ran.append(e.time))
    with pytest.raises(Budget):
        eng.run()
    # The budget tripped at the second event, before its callback ran.
    assert eng.dispatched_events == 2
    assert ran == [0.0]


def test_heartbeat_clears_and_validates(monkeypatch):
    monkeypatch.setattr(simulator, "HEARTBEAT_EVERY", 1)
    eng = Engine()
    beats = []
    observer = heartbeat_observer(eng, lambda e: beats.append(1))
    eng.add_observer(observer)
    eng.remove_observer(observer)
    eng.call_at(1.0, lambda e: None)
    eng.run()
    assert beats == []


def test_heartbeat_does_not_perturb_simulated_time(monkeypatch):
    monkeypatch.setattr(simulator, "HEARTBEAT_EVERY", 1)

    def run(with_beat):
        eng = Engine()
        if with_beat:
            eng.add_observer(heartbeat_observer(eng, lambda e: None))
        order = []
        for i in range(8):
            eng.call_at(float(i) * 0.5, lambda e, i=i: order.append(i))
        end = eng.run()
        return end, order

    assert run(True) == run(False)
