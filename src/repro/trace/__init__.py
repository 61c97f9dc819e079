"""Operator-level traces: format, (de)serialization, and the tracer.

The trace format follows the paper (§4.2): an operator table (name,
measured execution time, input/output tensor IDs) plus a tensor table
(dimensions, dtype, category) — the blend of the PyTorch Profiler and the
Execution Graph Observer outputs.  The :class:`~repro.trace.tracer.Tracer`
produces such traces by executing a workload graph on the hardware oracle's
single-GPU model (our substitute for profiling on a physical GPU).
"""

from repro.trace.records import OperatorRecord, TensorRecord
from repro.trace.trace import Trace, TraceFormatError, validate_trace_dict
from repro.trace.tracer import Tracer
from repro.trace.tools import TraceDiff, diff, filter_phase, summarize

__all__ = [
    "OperatorRecord",
    "TensorRecord",
    "Trace",
    "TraceDiff",
    "TraceFormatError",
    "Tracer",
    "diff",
    "filter_phase",
    "summarize",
    "validate_trace_dict",
]
