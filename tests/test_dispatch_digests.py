"""Pinned dispatch digests of the columnar task scheduler.

Every task graph — instanced plans (exact, folded warm-up, not-steady
fallback) and direct-built collectives — runs on one scheduler.  These
cases pin its ``(time, seq)`` dispatch digest, simulated time and event
count, and check that the verifier's runtime tier (sanitizers and race
detectors) observes that same schedule.  The digests and counts were
last re-recorded when a transfer sent onto an idle route stopped taking
an activation event; every task-table digest stayed as it was.

Compute chain links complete by engine steps, which observers see at
the ``(time, seq)`` their completion events had: the digests fold the
same stream as when every row took an event, and only the event counts
fell.

Each case also pins its task-table digest (``tests/task_table.py``):
the outcome alone.  A change that reaches the same outcome with fewer
events re-records the dispatch digest and the event count, and leaves
the task-table digest where it is.
"""

import pytest

import repro.core.simulator as simulator_module
from repro.collectives import ring_all_reduce
from repro.core.config import SimulationConfig
from repro.core.plan import PlanBuilder, PlanCache
from repro.core.simulator import TrioSim
from repro.core.taskgraph import TaskGraphSimulator
from repro.engine.engine import Engine
from repro.faults.spec import FaultSpec
from repro.gpus.specs import get_gpu
from repro.network.flow import FlowNetwork
from repro.network.topology import build_topology, ring
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model
from tests.task_table import task_table_digest

_MASK = (1 << 64) - 1

#: The faulted arm's straggler: gpu1 runs 1.5x slower for 50 ms from 1 ms.
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
            self.add_observer(digest)

    monkeypatch.setattr(simulator_module, "Engine", ObservedEngine)
    return digest


@pytest.mark.parametrize("faulted,digest,table,total", [
    (True, "3e6b24d1a9dc46b7", "6f640fd1d0a383ce", 0.022191069952813544),
    (False, "45adbe8d9451d085", "cdc9200ab0252193", 0.015341225055199572),
], ids=["faulted", "clean"])
def test_quick_engine_scenario_under_sanitize_and_verify(trace, task_tables,
                                                         faulted, digest,
                                                         table, total):
    config = SimulationConfig(
        parallelism="ddp", num_gpus=16, topology="leaf_spine",
        link_bandwidth=234e9, iterations=2, routing="adaptive",
        faults=FaultSpec.from_dict(STRAGGLER) if faulted else None)
    digests = []
    for verify in (True, "runtime"):
        sim = TrioSim(trace, config, record_timeline=False, verify=verify)
        result = sim.run()
        assert f"{sim.verify_digest:016x}" == digest
        assert result.total_time == total
        assert result.events == 2135
        assert sim.verify_report.ok and not sim.verify_report.findings
        digests.append(sim.verify_digest)
    assert digests[0] == digests[1]
    # Checking attaches observers and reads the table after the run: an
    # unverified run dispatches the same events to the same table.
    result = TrioSim(trace, config, record_timeline=False).run()
    assert result.total_time == total
    assert result.events == 2135
    assert [task_table_digest(store) for store in task_tables] == [table] * 3


@pytest.fixture(scope="module")
def resnet50_trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet50"), 128)


@pytest.fixture(scope="module")
def resnet50_plans():
    return PlanCache()


@pytest.mark.parametrize("faulted,digest,table,total", [
    (True, "b0cae62674f87754", "1b2b441996ae488c", 0.2053144305068356),
    (False, "c89067cbfe7d6a28", "158fff894cce86f5", 0.18863803921515243),
], ids=["faulted", "clean"])
def test_full_engine_scenario(resnet50_trace, resnet50_plans, observed,
                              task_tables, faulted, digest, table, total):
    """The same scenario at 64 GPUs with ResNet-50: the full scale of
    the engine benchmark, 66,159 events on the exact path."""
    config = SimulationConfig(
        parallelism="ddp", num_gpus=64, topology="leaf_spine",
        link_bandwidth=234e9, iterations=2, routing="adaptive",
        faults=FaultSpec.from_dict(STRAGGLER) if faulted else None)
    result = TrioSim(resnet50_trace, config, record_timeline=False,
                     plan_cache=resnet50_plans).run()
    assert str(observed) == digest
    assert result.total_time == total
    assert result.events == 66159
    assert [task_table_digest(store) for store in task_tables] == [table]


def test_folded_ddp_run(trace, observed, task_tables):
    config = SimulationConfig(parallelism="ddp", num_gpus=8, topology="ring",
                              link_bandwidth=100e9, iterations=8)
    result = TrioSim(trace, config, record_timeline=False).run()
    assert result.profile["fold_status"] == "folded"
    assert str(observed) == "955e1ec611dfce71"
    assert result.total_time == 0.06135216481156757
    assert result.events == 551
    assert [task_table_digest(store) for store in task_tables] == [
        "99afa7b459016677"]


def test_not_steady_fallback(trace, observed, task_tables):
    config = SimulationConfig(parallelism="pp", num_gpus=4, topology="ring",
                              link_bandwidth=100e9, iterations=6, chunks=4,
                              fold_warmup=2, fold_tolerance=0.0)
    result = TrioSim(trace, config, record_timeline=False).run()
    assert result.profile["fold_status"] == "not-steady"
    assert str(observed) == "eac3e5974a2ab2b6"
    assert result.total_time == 0.027344143128436367
    assert result.events == 359
    assert [task_table_digest(store) for store in task_tables] == [
        "15912000d152d9d4"]


def test_direct_built_ring_all_reduce():
    engine = Engine()
    digest = _Digest()
    engine.add_observer(digest)
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
    assert str(digest) == "54b3ae5d054f9ffb"
    assert engine.dispatched_events == 2218
    assert task_table_digest(sim.store) == "55b9ddde5438edcb"
    assert None not in sim.store.end


@pytest.mark.parametrize("routing,digest,table,events,total", [
    ("ecmp", "531b8dd936797ce8", "80ed994d78a3a555", 2158,
     0.05514024000000001),
    ("adaptive", "da57753cd9978c56", "0d666ec40e525d2a", 2098,
     0.001269647999999999),
])
def test_direct_built_storm_rings(routing, digest, table, events, total):
    """The quick ``fabric_storm`` benchmark's shape: 16 GPUs on a 2:1
    leaf-spine, two 8 MB rings whose every hop crosses the spine tier,
    and one uplink throttled to 2% that ECMP keeps hashing flows onto."""
    engine = Engine()
    observer = _Digest()
    engine.add_observer(observer)
    topology = build_topology("leaf_spine", 16, 100e9, 1e-6,
                              gpus_per_leaf=8, oversubscription=2.0)
    network = FlowNetwork(engine, topology, routing=routing, routing_seed=7)
    network.set_link_capacity("leaf0", "spine1",
                              topology["leaf0"]["spine1"]["bandwidth"] * 0.02)
    sim = TaskGraphSimulator(engine, network)
    base = [(i % 2) * 8 + i // 2 for i in range(16)]
    for shift in range(2):
        order = [f"gpu{(g + shift) % 16}" for g in base]
        ring_all_reduce(sim, order, 8 * 2 ** 20, tag=f"ring{shift}")
    assert sim.run() == total
    assert str(observer) == digest
    assert engine.dispatched_events == events
    assert task_table_digest(sim.store) == table


def test_empty_plan_releases_its_fences():
    engine = Engine()
    sim = TaskGraphSimulator(engine, FlowNetwork(engine, ring(2, 100.0)))
    PlanBuilder().finish().instantiate_iterations(sim, 3)
    assert sim.run() == 0.0
    assert [sim.store.name[f] for f in sim.fences] == ["iteration1",
                                                       "iteration2"]
    assert [sim.store.end[f] for f in sim.fences] == [0.0, 0.0]
    assert task_table_digest(sim.store) == "7678d1e0a9940b00"
