"""Pinned digests of extrapolated plans.

Each case builds one iteration's :class:`~repro.core.plan.ExtrapolationPlan`
and folds its columns — names, durations (as ``float.hex``), transfer
sizes and the successor CSR — into a digest.  The values were
recorded before plan building was made linear (indexed weight placement,
memoized scaled durations), so a later refactor of the extrapolators that
moves one operator duration by an ulp or reorders one edge fails here.
"""

import hashlib
import json

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.core.taskgraph import TaskGraphSimulator
from repro.gpus.specs import get_gpu
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model


@pytest.fixture(scope="module")
def traces():
    tracer = Tracer(get_gpu("A100"))
    return {
        "resnet18": tracer.trace(get_model("resnet18"), 32),
        "gpt2": tracer.trace(get_model("gpt2"), 8),
    }


def plan_digest(plan) -> str:
    columns = plan.columns
    h = hashlib.sha256()
    for name, duration, nbytes in zip(columns["name"], columns["duration"],
                                      columns["nbytes"]):
        h.update(f"{name}|{duration.hex()}|{nbytes.hex()}\n".encode())
    h.update(plan.succ_ptr.tobytes())
    h.update(plan.succ_idx.tobytes())
    return h.hexdigest()[:16]


CASES = {
    "pp-gpipe-c1": ("resnet18", dict(parallelism="pp", num_gpus=2, chunks=1)),
    "pp-gpipe-c2": ("resnet18", dict(parallelism="pp", num_gpus=2, chunks=2)),
    "pp-gpipe-c4": ("resnet18", dict(parallelism="pp", num_gpus=4, chunks=4)),
    "pp-1f1b-c4": ("resnet18", dict(parallelism="pp", num_gpus=4, chunks=4,
                                    pp_schedule="1f1b")),
    "tp-layerwise": ("gpt2", dict(parallelism="tp", num_gpus=2,
                                  batch_size=16)),
    "tp-megatron": ("gpt2", dict(parallelism="tp", num_gpus=4,
                                 tp_scheme="megatron")),
    "hybrid": ("resnet18", dict(parallelism="hybrid", num_gpus=4,
                                dp_degree=2, chunks=2)),
    "single-2x": ("resnet18", dict(parallelism="single", num_gpus=1,
                                   batch_size=64)),
}

#: Recorded on the full-table-scan, unmemoized plan builder.
DIGESTS = {
    "pp-gpipe-c1": "62c139ddb3ee91a7",
    "pp-gpipe-c2": "dca2a2f0bfeed3a0",
    "pp-gpipe-c4": "9f40623c1c94a047",
    "pp-1f1b-c4": "8490b3ef1c187dd1",
    "tp-layerwise": "9fe7255e8cc70f42",
    "tp-megatron": "33467e342e456639",
    "hybrid": "684e43cf543b69cd",
    "single-2x": "d7b035b0d21421c6",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_plan_digest_is_pinned(traces, case):
    model, fields = CASES[case]
    plan = TrioSim(traces[model], SimulationConfig(**fields),
                   record_timeline=False).build_plan()
    assert plan_digest(plan) == DIGESTS[case]


#: ``sha256(plan.to_json())[:16]`` of ResNet-18 plans, recorded when each
#: row still carried its own metadata dict.
JSON_DIGESTS = {
    "ddp": ("resnet18", dict(parallelism="ddp", num_gpus=4),
            "82a6115a812c9924"),
    "hybrid": ("resnet18", dict(parallelism="hybrid", num_gpus=4,
                                dp_degree=2, chunks=2), "45bd734ed4dd4103"),
}


@pytest.mark.parametrize("case", sorted(JSON_DIGESTS))
def test_equal_metadata_is_one_dict(traces, case):
    model, fields, digest = JSON_DIGESTS[case]
    plan = TrioSim(traces[model], SimulationConfig(**fields),
                   record_timeline=False).build_plan()
    metas = plan.columns["meta"]
    distinct = {json.dumps(meta) for meta in metas}
    assert len({id(meta) for meta in metas}) == len(distinct) < len(metas)
    assert hashlib.sha256(plan.to_json().encode()).hexdigest()[:16] == digest


def test_simulator_rows_share_equal_metadata():
    from repro.engine.engine import Engine
    from repro.network.flow import FlowNetwork
    from repro.network.topology import build_topology

    engine = Engine()
    sim = TaskGraphSimulator(engine, FlowNetwork(
        engine, build_topology("ring", 4, 25e9, 1e-6)))
    first = sim.add_transfer("a", "gpu0", "gpu1", 1e6, collective="ring0")
    second = sim.add_transfer("b", "gpu1", "gpu2", 1e6, collective="ring0")
    other = sim.add_transfer("c", "gpu2", "gpu3", 1e6, collective="ring1")
    bucket = sim.add_barrier("d", bucket=[1, 2])
    assert first.meta is second.meta == {"collective": "ring0"}
    assert other.meta == {"collective": "ring1"}
    assert bucket.meta == {"bucket": [1, 2]}  # unhashable: kept as given


def test_metadata_equal_by_value_is_stored_as_the_first_seen():
    from repro.core.plan import PlanBuilder

    builder = PlanBuilder()
    first = builder.add_barrier("a", step=1)
    second = builder.add_barrier("b", step=True)
    third = builder.add_barrier("c", step=1.5)
    metas = builder.columns["meta"]
    assert metas[second] is metas[first]
    assert type(metas[second]["step"]) is int
    assert metas[third] == {"step": 1.5}
