"""Tests for the hook system and the monitor."""

from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.engine.hooks import Hook, HookCtx, Hookable
from repro.engine.monitor import Monitor
from repro.network.flow import FlowNetwork
from repro.network.topology import build_topology


class _Counter:
    def __init__(self):
        self.count = 0
        self.last = None

    def func(self, ctx):
        self.count += 1
        self.last = ctx


class TestHookable:
    def test_invoke_reaches_all_hooks(self):
        target = Hookable()
        hooks = [_Counter() for _ in range(3)]
        for h in hooks:
            target.accept_hook(h)
        target.invoke_hooks(HookCtx("pos", 1.0))
        assert all(h.count == 1 for h in hooks)

    def test_remove_hook(self):
        target = Hookable()
        hook = _Counter()
        target.accept_hook(hook)
        target.remove_hook(hook)
        target.invoke_hooks(HookCtx("pos", 1.0))
        assert hook.count == 0
        assert target.num_hooks == 0

    def test_ctx_fields(self):
        target = Hookable()
        hook = _Counter()
        target.accept_hook(hook)
        target.invoke_hooks(HookCtx("p", 2.0, item="x", detail={"k": 1}))
        assert hook.last.pos == "p"
        assert hook.last.time == 2.0
        assert hook.last.item == "x"
        assert hook.last.detail == {"k": 1}

    def test_counter_satisfies_protocol(self):
        assert isinstance(_Counter(), Hook)


def _run_tasks(monitor, count=1):
    """Run *count* back-to-back compute tasks with *monitor* on the
    task-graph simulator's hooks (what ``TrioSim(hooks=)`` attaches to)."""
    engine = Engine()
    network = FlowNetwork(engine, build_topology("ring", 2, 100e9, 1e-6))
    sim = TaskGraphSimulator(engine, network)
    sim.accept_hook(monitor)
    previous = []
    for i in range(count):
        previous = [sim.add_compute(f"op{i}", "gpu0", 1e-3, deps=previous)]
    sim.run()


class TestMonitor:
    def test_records_task_events(self):
        monitor = Monitor()
        _run_tasks(monitor)
        assert monitor.counts["task_start"] == 1
        assert monitor.counts["task_end"] == 1
        assert len(monitor.records) == 2

    def test_position_filter(self):
        monitor = Monitor(positions=["task_end"])
        _run_tasks(monitor)
        # Counts see everything, records only the filtered position.
        assert monitor.counts["task_start"] == 1
        assert [r.pos for r in monitor.records] == ["task_end"]

    def test_max_records_bound(self):
        monitor = Monitor(max_records=5)
        _run_tasks(monitor, count=5)
        assert sum(monitor.counts.values()) == 10
        assert len(monitor.records) == 5

    def test_events_per_second_positive(self):
        monitor = Monitor()
        _run_tasks(monitor)
        assert monitor.events_per_second() > 0

    def test_summary_copies(self):
        monitor = Monitor()
        monitor.func(HookCtx("p", 0.0))
        summary = monitor.summary()
        summary["p"] = 99
        assert monitor.counts["p"] == 1
