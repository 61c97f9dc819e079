"""Pinned digests of whole simulation results.

Each case hashes ``SimulationResult.to_dict()`` without its host-side
timing (``wall_time``, ``profile``), with every float written exactly
(``repr`` round-trips), so a pin holds only if totals, per-GPU busy
times, per-layer/per-phase breakdowns, the timeline (order included),
iteration times and the network summary are all bit-identical.  The
values were recorded before busy-time and timeline accounting moved
from per-event counters and a timeline hook to the task table.
"""

import hashlib
import json

import pytest

import repro.core.simulator as simulator_module
from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.faults.spec import FaultSpec
from repro.gpus.specs import get_gpu
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model

#: A straggler on gpu1 and a periodic checkpoint: the exact path.
FAULTS = {
    "schema_version": 1, "seed": 0,
    "stragglers": [{"gpu": "gpu1", "start": 0.001, "duration": 0.02,
                    "factor": 1.5}],
    "link_faults": [], "failures": [], "checkpoint_interval": 0.01,
    "checkpoint_cost": 0.002, "restore_cost": 0.0, "chaos_kill_at": None,
}


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A100")).trace(get_model("resnet18"), 32)


def digest(result) -> str:
    data = result.to_dict()
    data.pop("wall_time")
    data.pop("profile")
    text = json.dumps(data, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


CASES = {
    "ddp_folded_timeline": (
        dict(parallelism="ddp", num_gpus=4, topology="ring", iterations=8),
        True, "folded"),
    "ddp_folded_no_timeline": (
        dict(parallelism="ddp", num_gpus=4, topology="ring", iterations=8),
        False, "folded"),
    "pp_1f1b": (
        dict(parallelism="pp", num_gpus=4, topology="ring", chunks=8,
             pp_schedule="1f1b"),
        True, None),
    "ddp_straggler_checkpoint": (
        dict(parallelism="ddp", num_gpus=4, topology="ring", iterations=4,
             faults=FaultSpec.from_dict(FAULTS)),
        True, "off:faults"),
}

PINS = {
    "ddp_folded_timeline": "647d1f9b96166f9f",
    "ddp_folded_no_timeline": "3497d9bae209cefd",
    "pp_1f1b": "e8d0dc52d6233eb7",
    "ddp_straggler_checkpoint": "1dd36993ca35bcae",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_digest(trace, case):
    overrides, timeline, fold_status = CASES[case]
    result = TrioSim(trace, SimulationConfig(**overrides),
                     record_timeline=timeline).run()
    assert result.profile.get("fold_status") == fold_status
    assert bool(result.timeline) == timeline
    assert bool(result.per_layer) == timeline
    assert digest(result) == PINS[case]


def test_timeline_needs_no_task_hook(trace, monkeypatch):
    """Recording a timeline attaches nothing to the task hooks, so no
    per-task hook context is built."""
    built = []

    class Captured(simulator_module.TaskGraphSimulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(simulator_module, "TaskGraphSimulator", Captured)
    config = SimulationConfig(parallelism="ddp", num_gpus=4,
                              topology="ring", iterations=8)
    result = TrioSim(trace, config, record_timeline=True).run()
    assert result.timeline
    assert len(built) == 1 and built[0]._hooks == []
