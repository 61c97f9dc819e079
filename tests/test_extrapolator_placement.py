"""Host input fetches of the hybrid extrapolator.

Hybrid parallelism forwards ``fetch_inputs`` to each replica's pipeline,
so every replica loads its own micro-batches from host memory.
"""

from repro.core.plan import PlanBuilder
from repro.extrapolator.hybrid import HybridExtrapolator
from repro.extrapolator.optime import OpTimeModel
from repro.gpus.specs import get_gpu
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model


def test_hybrid_fetches_inputs_per_replica_micro_batch():
    trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"), 16)
    ex = HybridExtrapolator(trace, OpTimeModel(trace), dp_degree=2,
                            pp_stages=2, chunks=2)
    ex.fetch_inputs = True
    builder = PlanBuilder()
    ex.build(builder)
    fetches = [name for name in builder.columns["name"]
               if name.startswith("h2d:")]
    assert fetches == ["h2d:gpu0/r0/mb0", "h2d:gpu0/r0/mb1",
                       "h2d:gpu2/r1/mb0", "h2d:gpu2/r1/mb1"]
