"""Pinned digests of whole simulation results.

Each case hashes ``SimulationResult.to_dict()`` without its host-side
timing (``wall_time``, ``profile``) and without its event count, with
every float written exactly (``repr`` round-trips), so a pin holds only
if totals, per-GPU busy times, per-layer/per-phase breakdowns, the
timeline (order included), iteration times and the network summary are
all bit-identical.  Each case also pins the run's task-table digest
(``tests/task_table.py``).  Both are outcomes; the event count is what
the run cost, and is pinned on its own.
"""

import hashlib
import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.faults.spec import FaultSpec
from repro.gpus.specs import get_gpu
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model
from tests.task_table import task_table_digest

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
    data.pop("events")
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

#: ``(result digest, task-table digest)`` per case.
PINS = {
    "ddp_folded_timeline": ("60a7e4408e2f6ce6", "437cf099131fbe36"),
    "ddp_folded_no_timeline": ("fdbbf287e9e34d33", "437cf099131fbe36"),
    "pp_1f1b": ("bedb29a49229bb03", "a69a67fecde111c7"),
    "ddp_straggler_checkpoint": ("5a42858be2419878", "8231821d5757f9ef"),
}

#: Events each case dispatches.
EVENTS = {
    "ddp_folded_timeline": 143,
    "ddp_folded_no_timeline": 143,
    "pp_1f1b": 136,
    "ddp_straggler_checkpoint": 291,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_digest(trace, task_tables, case):
    overrides, timeline, fold_status = CASES[case]
    result = TrioSim(trace, SimulationConfig(**overrides),
                     record_timeline=timeline).run()
    assert result.profile.get("fold_status") == fold_status
    assert bool(result.timeline) == timeline
    assert bool(result.per_layer) == timeline
    assert (digest(result),
            *map(task_table_digest, task_tables)) == PINS[case]
    assert result.events == EVENTS[case]

