"""Feature extraction for the regression performance model.

Each operator is summarized by the two quantities a roofline cares about:
floating-point work and bytes moved.  Both come straight from the trace —
FLOPs from the operator record, bytes from the tensor table — so the model
needs nothing beyond the paper's trace format.
"""

from __future__ import annotations

import numpy as np

from repro.trace.records import OperatorRecord
from repro.trace.trace import Trace

#: Feature vector length: (flops, bytes, intercept).
NUM_FEATURES = 3


def features(flops: float, nbytes: float) -> np.ndarray:
    """Feature vector for an operator with the given work and traffic."""
    if flops < 0 or nbytes < 0:
        raise ValueError("flops and nbytes must be non-negative")
    return np.array([flops, nbytes, 1.0])


def op_features(trace: Trace, op: OperatorRecord) -> np.ndarray:
    """Feature vector of a traced operator."""
    return features(op.flops, trace.op_bytes(op))

