"""Trace record types: tensors and operators.

Each operator entry carries "the operator name, measured execution time,
and input/output as a list of tensor IDs"; the tensor table records
"tensor dimensions to estimate the number of bytes that need to be moved"
(paper §4.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

#: Bytes per element of each supported dtype.
DTYPE_BYTES = {"float32": 4, "float16": 2, "bfloat16": 2, "int64": 8, "int32": 4}

#: Tensor categories reported by the Execution Graph Observer.
TENSOR_CATEGORIES = ("input", "weight", "gradient", "output", "activation")

#: Phases of a training iteration.
PHASES = ("forward", "backward", "optimizer")


@dataclass(frozen=True)
class TensorRecord:
    """One entry of the tensor table.

    Attributes
    ----------
    tensor_id:
        Unique integer ID referenced by operator records.
    dims:
        Tensor shape; the leading dimension is the batch for activations.
    dtype:
        Element type name (``float32`` in the paper's FP32 training setup).
    category:
        One of :data:`TENSOR_CATEGORIES`.
    """

    tensor_id: int
    dims: Tuple[int, ...]
    dtype: str = "float32"
    category: str = "activation"

    def __post_init__(self):
        if self.category not in TENSOR_CATEGORIES:
            raise ValueError(f"unknown tensor category {self.category!r}")
        if self.dtype not in DTYPE_BYTES:
            raise ValueError(f"unknown dtype {self.dtype!r}")
        if any(d < 0 for d in self.dims):
            raise ValueError(f"negative dimension in {self.dims}")

    @property
    def elems(self) -> int:
        return math.prod(self.dims) if self.dims else 0

    @property
    def nbytes(self) -> int:
        """Size in bytes — what moves over the wire if fetched remotely."""
        return self.elems * DTYPE_BYTES[self.dtype]


@dataclass(frozen=True)
class OperatorRecord:
    """One entry of the operator table.

    Attributes
    ----------
    name:
        Unique operator name, e.g. ``"layer1.0.conv1#fwd"``.
    kind:
        Operator class (``conv``, ``linear``, ``norm``, ...) used to group
        operators in the regression model.
    layer:
        The DNN layer this operator belongs to (the "bridge" the tracer
        uses to blend profiler and execution-graph data).
    phase:
        ``forward``, ``backward``, or ``optimizer``.
    duration:
        Measured execution time in seconds.
    flops:
        Floating-point work of the operator (profiler-style estimate).
    inputs / outputs:
        Tensor IDs referencing the tensor table.
    """

    name: str
    kind: str
    layer: str
    phase: str
    duration: float
    flops: float
    inputs: Tuple[int, ...] = field(default_factory=tuple)
    outputs: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.phase not in PHASES:
            raise ValueError(f"unknown phase {self.phase!r}")
        if self.duration < 0:
            raise ValueError(f"operator {self.name}: negative duration")
        if self.flops < 0:
            raise ValueError(f"operator {self.name}: negative flops")
