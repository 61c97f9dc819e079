"""Operator-time resolution during extrapolation.

:class:`OpTimeModel` answers "how long does this traced operator take under
the simulated configuration?"  It encodes the paper's two-mode policy
(§4.4): when the simulated batch/shard match the trace, the trace-provided
time is used verbatim; otherwise Li's Model scales the traced time by its
predicted ratio.

Scaling rules (per-operator, from the trace's tensor table):

* Batch scale ``b`` (forward/backward ops): FLOPs x ``b``; activation
  bytes x ``b``; parameter bytes unchanged.  Optimizer ops touch only
  parameters and never scale with batch.
* Shard ``n`` (tensor parallelism, shardable ops only): FLOPs / ``n``;
  output activations and parameters / ``n``; input activations replicated.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple

from repro.perfmodel.li_model import LiModel
from repro.perfmodel.scaling import CrossGPUScaler
from repro.trace.records import OperatorRecord
from repro.trace.trace import Trace, trace_digest
from repro.workloads.graph import TENSOR_PARALLEL_KINDS


class OpTimeModel:
    """Resolves operator durations under batch scaling and sharding.

    ``perf_model`` may be any fitted
    :class:`~repro.perfmodel.base.OperatorPerformanceModel` (Li's Model by
    default; see :class:`~repro.perfmodel.piecewise.PiecewiseThroughputModel`
    for the under-utilization-aware alternative).
    """

    def __init__(self, trace: Trace, perf_model=None):
        self.trace = trace
        self._model = perf_model
        #: Scaled durations by ``(op.name, batch_scale, shard)`` after
        #: normalisation; the trace and model are fixed, so an entry
        #: never goes stale.
        self._scaled: Dict[Tuple[str, float, int], Tuple[OperatorRecord, float]] = {}

    @property
    def li_model(self):
        """The active performance model (fitted lazily: Li's Model)."""
        if self._model is None:
            self._model = LiModel.fit(self.trace)
        return self._model

    def shardable(self, op: OperatorRecord) -> bool:
        """Whether tensor parallelism may split this operator."""
        return op.kind in TENSOR_PARALLEL_KINDS

    def duration(self, op: OperatorRecord, batch_scale: float = 1.0,
                 shard: int = 1) -> float:
        """Duration of *op* at a scaled batch and/or sharded across GPUs."""
        if batch_scale <= 0:
            raise ValueError("batch_scale must be positive")
        if shard < 1:
            raise ValueError("shard must be >= 1")
        if op.phase == "optimizer":
            batch_scale = 1.0  # parameter updates are batch-independent
        if shard > 1 and not self.shardable(op):
            shard = 1
        if batch_scale == 1.0 and shard == 1:
            return op.duration
        key = (op.name, batch_scale, shard)
        hit = self._scaled.get(key)
        # Op names are unique within a trace; the identity check keeps a
        # trace that breaks that rule correct (it only loses the memo).
        if hit is not None and hit[0] is op:
            return hit[1]
        in_act, out_act, param = self.trace.op_bytes_detail(op)
        total = in_act + out_act + param
        new_bytes = (
            in_act * batch_scale
            + out_act * batch_scale / shard
            + param / shard
        )
        bytes_scale = new_bytes / total if total > 0 else 1.0
        flops_scale = batch_scale / shard
        scaled = self.li_model.predict_scaled(
            self.trace, op, flops_scale, bytes_scale)
        self._scaled[key] = (op, scaled)
        return scaled

    # ------------------------------------------------------------------
    # Byte queries used when inserting communication operators
    # ------------------------------------------------------------------
    def output_act_bytes(self, op: OperatorRecord, batch_scale: float = 1.0) -> float:
        """Output activation payload at a scaled batch (what pipeline and
        tensor parallelism move between GPUs)."""
        _in, out_act, _param = self.trace.op_bytes_detail(op)
        return out_act * batch_scale

    def gradient_bytes(self, op: OperatorRecord) -> float:
        """Parameter-gradient bytes this operator produces (what data
        parallelism AllReduces)."""
        return sum(
            self.trace.tensors[t].nbytes
            for t in op.outputs
            if self.trace.tensors[t].category == "gradient"
        )


def build_op_time(trace: Trace, perf_model: str = "li") -> OpTimeModel:
    """An :class:`OpTimeModel` over *trace* for a
    ``SimulationConfig.perf_model`` name.

    ``"piecewise"`` fits its throughput curves here; Li's Model (the
    default) is fitted lazily on first use.
    """
    if perf_model == "piecewise":
        from repro.perfmodel.piecewise import PiecewiseThroughputModel

        return OpTimeModel(trace, PiecewiseThroughputModel.fit(trace))
    return OpTimeModel(trace)


# ----------------------------------------------------------------------
# Prepared inputs, memoized per process
# ----------------------------------------------------------------------

#: Bound on memoized prepared inputs (rescaled traces and op-time models).
PREPARED_LIMIT = 64

#: ``("rescale", source digest, TARGET GPU) -> Trace`` and
#: ``("fit", prepared digest, perf_model) -> OpTimeModel``, one LRU.  Keys
#: are content digests (:func:`~repro.trace.trace.trace_digest`), so equal
#: traces loaded twice share an entry.
_PREPARED: "OrderedDict[tuple, object]" = OrderedDict()


def _memoized(key: tuple, build):
    value = _PREPARED.pop(key, None)
    if value is None:
        value = build()
    _PREPARED[key] = value  # (re)inserted as most recently used
    while len(_PREPARED) > PREPARED_LIMIT:
        _PREPARED.popitem(last=False)
    return value


def rescale(trace: Trace, gpu: Optional[str]) -> Trace:
    """*trace* cross-GPU rescaled to *gpu* (paper §4.4's rescaling step).

    Idempotent: a trace already on *gpu* (or ``gpu=None``) comes back
    unchanged.  Otherwise the conversion runs at most once per
    ``(trace content, target GPU)`` in this process.
    """
    if gpu is None or gpu.upper() == trace.gpu_name.upper():
        return trace
    key = ("rescale", trace_digest(trace), gpu.upper())
    return _memoized(key, lambda: CrossGPUScaler.between(
        trace.gpu_name, gpu).convert_trace(trace))


def prepare(trace: Trace, gpu: Optional[str],
            perf_model: str = "li") -> Tuple[Trace, OpTimeModel]:
    """The prepared trace and op-time model a config runs against.

    *trace* is rescaled to *gpu* (see :func:`rescale`) and the
    performance model is built at most once per ``(prepared trace
    content, perf_model)`` in this process, so every run, sweep point and
    verification over the same trace shares one fit.  The shared model
    may have been built on an equal copy of the prepared trace.
    """
    prepared = rescale(trace, gpu)
    op_time = _memoized(("fit", trace_digest(prepared), perf_model),
                        lambda: build_op_time(prepared, perf_model))
    return prepared, op_time


def clear_prepared() -> int:
    """Drop every memoized prepared input; returns the number evicted."""
    evicted = len(_PREPARED)
    _PREPARED.clear()
    return evicted
