"""Pinned digests of extrapolated plans.

Each case builds one iteration's :class:`~repro.core.plan.ExtrapolationPlan`
and folds its columns — names, durations (as ``float.hex``), transfer
sizes and the successor CSR — into a digest.  The values were
recorded before plan building was made linear (indexed weight placement,
memoized scaled durations), so a later refactor of the extrapolators that
moves one operator duration by an ulp or reorders one edge fails here.
"""

import hashlib

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
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
