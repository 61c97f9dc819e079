"""Pinned dispatch digests of the columnar task scheduler.

Every task graph — instanced plans (exact, folded warm-up, not-steady
fallback) and direct-built collectives — runs on one scheduler.  These
cases pin its ``(time, seq)`` dispatch digest, simulated time and event
count to values recorded when it was proven dispatch-identical to the
per-object dependency walk it replaced, and check that the sanitizers
and race detectors observe that same schedule.
"""

import pytest

import repro.core.simulator as simulator_module
from repro.collectives import ring_all_reduce
from repro.core.config import SimulationConfig
from repro.core.plan import ExtrapolationPlan
from repro.core.simulator import TrioSim
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.faults.spec import FaultSpec
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.topology import build_topology, ring
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model

_MASK = (1 << 64) - 1

#: The quick scenario of ``benchmarks/bench_engine.py``.
STRAGGLER = {
    "schema_version": 1, "seed": 0,
    "stragglers": [{"gpu": "gpu1", "start": 0.001, "duration": 0.05,
                    "factor": 1.5}],
    "link_faults": [], "failures": [], "checkpoint_interval": None,
    "checkpoint_cost": 0.0, "restore_cost": 0.0, "chaos_kill_at": None,
}


class _Digest:
    """The race detector's dispatch-order fold, as an engine observer."""

    def __init__(self):
        self.value = 0

    def __call__(self, time, seq, event):
        self.value = ((self.value * 1000003) ^ hash((time, seq))) & _MASK

    def __str__(self):
        return f"{self.value:016x}"


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 32)


@pytest.fixture
def observed(monkeypatch):
    """A digest observing every engine TrioSim builds (folding stays
    eligible: an observer is not a hook)."""
    digest = _Digest()

    class ObservedEngine(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.set_dispatch_observer(digest)

    monkeypatch.setattr(simulator_module, "Engine", ObservedEngine)
    return digest


@pytest.mark.parametrize("faulted,digest,total", [
    (True, "1f230fd73109a37c", 0.022191069952813544),
    (False, "9b34ac9e49f24202", 0.015341225055199572),
])
def test_quick_engine_scenario_under_sanitize_and_verify(trace, faulted,
                                                         digest, total):
    config = SimulationConfig(
        parallelism="ddp", num_gpus=16, topology="leaf_spine",
        link_bandwidth=234e9, iterations=2, routing="adaptive",
        faults=FaultSpec.from_dict(STRAGGLER) if faulted else None)
    digests = []
    for kwargs in ({"verify": True}, {"sanitize": True, "verify": True}):
        sim = TrioSim(trace, config, record_timeline=False, **kwargs)
        result = sim.run()
        assert f"{sim.verify_digest:016x}" == digest
        assert result.total_time == total
        assert result.events == 10103
        assert sim.verify_report.ok and not sim.verify_report.findings
        if sim.sanitizer_report is not None:
            assert sim.sanitizer_report.ok
            assert not sim.sanitizer_report.findings
        digests.append(sim.verify_digest)
    assert digests[0] == digests[1]


def test_folded_ddp_run(trace, observed):
    config = SimulationConfig(parallelism="ddp", num_gpus=8, topology="ring",
                              link_bandwidth=100e9, iterations=8)
    result = TrioSim(trace, config, record_timeline=False).run()
    assert result.profile["fold_status"] == "folded"
    assert str(observed) == "697d78edd5efdadd"
    assert result.total_time == 0.06135216481156757
    assert result.events == 3895


def test_not_steady_fallback(trace, observed):
    config = SimulationConfig(parallelism="pp", num_gpus=4, topology="ring",
                              link_bandwidth=100e9, iterations=6, chunks=4,
                              fold_warmup=2, fold_tolerance=0.0)
    result = TrioSim(trace, config, record_timeline=False).run()
    assert result.profile["fold_status"] == "not-steady"
    assert str(observed) == "c45410a20be995e0"
    assert result.total_time == 0.027344143128436367
    assert result.events == 3971


def test_direct_built_ring_all_reduce():
    engine = Engine()
    digest = _Digest()
    engine.set_dispatch_observer(digest)
    topology = build_topology("leaf_spine", 16, 100e9, 1e-6,
                              gpus_per_leaf=4, oversubscription=2.0)
    network = FlowNetwork(engine, topology, routing="ecmp", routing_seed=7)
    sim = TaskGraphSimulator(engine, network)
    # Every hop leaves its leaf; the second ring shifts the GPU indices.
    base = [(i % 4) * 4 + i // 4 for i in range(16)]
    for shift in range(2):
        order = [f"gpu{(g + shift) % 16}" for g in base]
        ring_all_reduce(sim, order, 8 * 2 ** 20, tag=f"ring{shift}")
    assert sim.run() == 0.0013482911999999996
    assert str(digest) == "91bfee92ae015923"
    assert engine.dispatched_events == 2218
    assert all(task.done for task in sim.tasks)


def test_empty_plan_releases_its_fences():
    engine = Engine()
    sim = TaskGraphSimulator(engine, FlowNetwork(engine, ring(2, 100.0)))
    ExtrapolationPlan([], key="empty").instantiate_iterations(sim, 3)
    assert sim.run() == 0.0
    assert [fence.name for fence in sim.fences] == ["iteration1",
                                                    "iteration2"]
    assert [fence.end_time for fence in sim.fences] == [0.0, 0.0]
