"""Compute chains advanced by engine steps, against the per-row scheduler.

A compute row whose one successor is the next compute row on its GPU
completes by an engine step, not an event (``core/taskgraph.py``).  The
oracle, :class:`PerRow`, keeps the scheduler's per-row dispatch: every
compute row completes by its own event.  Random plans on 2-4 GPUs —
program-order chains cut by cross-GPU dependencies, non-uniform
priorities, zero-duration rows, straggler windows, checkpoint and
failure stalls, with durations, fault times, link latencies and lone
transfers on one coarse grid so that steps tie with completions, flow
activations and deliveries — must give both the same task table bit for
bit, the same fault counters, and the same observed dispatch stream,
steps included (:func:`popped`).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.plan import PlanBuilder
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.engine.events import Event
from repro.faults import FaultInjector
from repro.faults.spec import DeviceFailure, FaultSpec, Straggler
from repro.network.flow import FlowNetwork
from repro.network.topology import ring
from tests.task_table import task_table_digest

#: Every duration and fault time is a multiple of this, so completions,
#: window edges and stalls meet at the same instants.
TICK = 0.5e-3


class PerRow(TaskGraphSimulator):
    """The scheduler with no chain steps: each compute row's completion
    is an event, dispatched exactly as before chains took steps."""

    def _dispatch(self, queue, pending):
        ready = queue.ready
        if not ready:
            return
        store = self.store
        if store.uniform_priority:
            tid = min(ready)
        else:
            priority = store.priority
            tid = min(ready, key=lambda t: (priority[t], t))
        ready.remove(tid)
        queue.running = tid
        now = self.engine._now
        store.start[tid] = now
        duration = store.duration[tid]
        scale = queue.scale
        if scale is not None:
            duration *= scale(store.gpu[tid], now)
        pending.append(Event(now + duration, self._complete, tid))


@st.composite
def scenarios(draw):
    gpus = draw(st.integers(2, 4))
    names = [f"gpu{g}" for g in range(gpus)]
    prioritized = draw(st.booleans())
    builder = PlanBuilder()
    last = {}  # GPU -> its latest compute row: the program order
    rows = []
    for index in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ("compute",) * 6 + ("transfer", "barrier")))
        extra = draw(st.lists(st.integers(0, max(len(rows) - 1, 0)),
                              max_size=2 if rows else 0, unique=True))
        deps = [rows[i] for i in extra]
        if kind == "compute":
            gpu = draw(st.sampled_from(names))
            if gpu in last and draw(st.integers(0, 4)):
                deps.append(last[gpu])
            row = builder.add_compute(
                f"c{index}", gpu, TICK * draw(st.integers(0, 4)),
                deps=sorted(set(deps)),
                priority=draw(st.integers(0, 2)) if prioritized else 0)
            last[gpu] = row
        elif kind == "transfer":
            src, dst = draw(st.lists(st.sampled_from(names), min_size=2,
                                     max_size=2, unique=True))
            row = builder.add_transfer(
                f"x{index}", src, dst,
                # 5e7 B takes one TICK alone on a 100 GB/s link.
                draw(st.sampled_from((0.0, 1e6, 5e7))),
                deps=sorted(set(deps)))
        else:
            row = builder.add_barrier(f"b{index}", deps=sorted(set(deps)))
        rows.append(row)
    ticks = st.integers(0, 30).map(lambda n: n * TICK)
    stragglers = draw(st.lists(st.builds(
        Straggler, gpu=st.sampled_from(names), start=ticks,
        duration=st.integers(1, 12).map(lambda n: n * TICK),
        factor=st.sampled_from((0.5, 1.5, 2.0))), max_size=3))
    failures = draw(st.lists(st.builds(
        DeviceFailure, device=st.sampled_from(names), time=ticks),
        max_size=2))
    spec = FaultSpec(
        stragglers=tuple(stragglers), failures=tuple(failures),
        checkpoint_interval=draw(st.sampled_from(
            (None, 2 * TICK, 5 * TICK))),
        checkpoint_cost=draw(st.sampled_from((0.0, TICK))),
        restore_cost=draw(st.sampled_from((0.0, TICK))))
    return (gpus, builder.finish(), draw(st.integers(1, 3)), spec,
            draw(st.sampled_from((0.0, TICK))))


def popped(time, seq, event):
    """What an observer saw pop: a row's completion as its row id, step
    or event alike, and any other event as its callback's name, so two
    entries of one instant that swap places change the stream."""
    if event.__class__ is int:
        return time, seq, event
    name = event.callback.__name__
    return time, seq, event.payload if name == "_complete" else name


def simulate(cls, gpus, plan, iterations, spec, latency=0.0):
    # A bound far above any plan drawn here: a checkpoint clock that
    # never sees the run drain fails fast instead of ticking on.
    engine = Engine(max_events=100_000)
    stream = engine.stream = []
    engine.add_observer(lambda *entry: stream.append(popped(*entry)))
    network = FlowNetwork(engine, ring(gpus, 100e9, latency))
    sim = cls(engine, network)
    plan.instantiate_iterations(sim, iterations)
    injector = FaultInjector(engine, sim, network, spec).install()
    try:
        total = sim.run()
    finally:
        injector.release()
    return sim, injector.stats(), total


def table(sim):
    store = sim.store
    return ([t.hex() for t in store.start], [t.hex() for t in store.end],
            store.finished)


@given(scenarios())
@settings(max_examples=300, deadline=None)
def test_chain_steps_match_per_row_scheduler(scenario):
    chained, chained_stats, chained_total = simulate(
        TaskGraphSimulator, *scenario)
    oracle, oracle_stats, oracle_total = simulate(PerRow, *scenario)
    assert table(chained) == table(oracle)
    assert chained.engine.stream == oracle.engine.stream
    assert chained_stats == oracle_stats
    assert chained_total.hex() == oracle_total.hex()
    assert (chained.engine.dispatched_events
            <= oracle.engine.dispatched_events)


def test_chain_takes_one_event_and_a_cut_gives_the_ready_row_the_gpu():
    """gpu0 runs a chain a0 -> a1 -> a2 -> a3 (1 ms each).  b on gpu1
    ends at 1.5 ms and releases c onto gpu0 while a1 runs: c takes the
    GPU when a1 ends, ahead of a2, whose link it cut."""
    builder = PlanBuilder()
    a = [builder.add_compute("a0", "gpu0", 2 * TICK)]
    for i in range(1, 4):
        a.append(builder.add_compute(f"a{i}", "gpu0", 2 * TICK,
                                     deps=[a[-1]]))
    b = builder.add_compute("b", "gpu1", 3 * TICK)
    c = builder.add_compute("c", "gpu0", TICK, deps=[b])
    plan = builder.finish()
    clean = FaultSpec()
    chained, _, total = simulate(TaskGraphSimulator, 2, plan, 1, clean)
    oracle, _, _ = simulate(PerRow, 2, plan, 1, clean)
    start = chained.store.start
    assert start[c] == 4 * TICK and start[a[2]] == 5 * TICK
    assert total == 9 * TICK
    assert task_table_digest(chained.store) == task_table_digest(oracle.store)
    # Oracle: one event per row.  Chained: a0 steps; a1's step finds c
    # ready and finishes a1 the general way; a2 -> a3 steps; a3, b and
    # c end by events.
    assert oracle.engine.dispatched_events == 6
    assert chained.engine.dispatched_events == 3


def test_step_is_numbered_where_its_event_would_be():
    """c0 ends at 0 and releases, in order, the link c1 (ending at
    0.5 ms) and a send x2 over the route of x1, which was sent at 0 and
    activates at 0.5 ms: x2 requeues that activation.  c1's step is
    numbered after it, where c1's completion event was, so at 0.5 ms
    x1's activation pops before c1 on both paths."""
    builder = PlanBuilder()
    builder.add_transfer("x1", "gpu0", "gpu1", 5e7)
    c0 = builder.add_compute("c0", "gpu0", 0.0)
    c1 = builder.add_compute("c1", "gpu0", TICK, deps=[c0])
    builder.add_transfer("x2", "gpu0", "gpu1", 5e7, deps=[c0])
    builder.add_compute("c2", "gpu0", TICK, deps=[c1])
    plan = builder.finish()
    chained, _, _ = simulate(TaskGraphSimulator, 2, plan, 1, FaultSpec(),
                             latency=TICK)
    oracle, _, _ = simulate(PerRow, 2, plan, 1, FaultSpec(),
                            latency=TICK)
    assert chained.engine.stream == oracle.engine.stream
    at_tick = [what for time, _, what in chained.engine.stream
               if time == TICK]
    assert at_tick[:2] == ["_activate", c1]
    assert table(chained) == table(oracle)


def test_stall_defers_a_running_link():
    """A failure at 1.5 ms stalls the run while a chain link runs: the
    link's step moves with the stall, exactly as its event would."""
    builder = PlanBuilder()
    previous = []
    for i in range(4):
        previous = [builder.add_compute(f"a{i}", "gpu0", 2 * TICK,
                                        deps=previous)]
    plan = builder.finish()
    spec = FaultSpec(failures=(DeviceFailure("gpu0", 3 * TICK),),
                     restore_cost=TICK)
    chained, stats, total = simulate(TaskGraphSimulator, 2, plan, 1, spec)
    oracle, oracle_stats, _ = simulate(PerRow, 2, plan, 1, spec)
    assert table(chained) == table(oracle)
    assert stats == oracle_stats
    # 1.5 ms of lost work replayed plus the 0.5 ms restore.
    assert total == 8 * TICK + 4 * TICK


def _chain(links):
    """A plan of one chain of 1 ms links on gpu0."""
    builder = PlanBuilder()
    previous = []
    for i in range(links):
        previous = [builder.add_compute(f"a{i}", "gpu0", 2 * TICK,
                                        deps=previous)]
    return builder.finish()


def test_straggler_scales_each_link_once():
    """A window over [0.5, 2) ms doubles a1 alone, which its
    predecessor's step dispatches: one straggled task, as per row."""
    spec = FaultSpec(stragglers=(Straggler("gpu0", TICK, 3 * TICK, 2.0),))
    chained, stats, total = simulate(TaskGraphSimulator, 2, _chain(4), 1,
                                     spec)
    oracle, oracle_stats, _ = simulate(PerRow, 2, _chain(4), 1, spec)
    assert table(chained) == table(oracle)
    assert stats == oracle_stats
    assert stats["straggled_tasks"] == 1
    assert total == 10 * TICK


def test_checkpoint_clock_stops_when_the_chain_drains():
    """Checkpoints every 1.5 ms over a 4 ms chain: two are taken, and
    the one due at 4.5 ms finds every row finished and stops the clock,
    as on the per-row path."""
    spec = FaultSpec(checkpoint_interval=3 * TICK)
    chained, stats, total = simulate(TaskGraphSimulator, 2, _chain(4), 1,
                                     spec)
    oracle, oracle_stats, _ = simulate(PerRow, 2, _chain(4), 1, spec)
    assert table(chained) == table(oracle)
    assert stats == oracle_stats
    assert stats["checkpoints_taken"] == 2
    # Three checkpoint events and a3's completion.
    assert chained.engine.dispatched_events == 4
    assert total == 8 * TICK
