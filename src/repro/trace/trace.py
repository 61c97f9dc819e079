"""The trace container: the primary input to TrioSim.

A :class:`Trace` holds the two tables of the paper's format and the
metadata needed to interpret them (model, GPU, batch size).  Traces
round-trip through JSON so users can persist and share them exactly like
the original tool's profiler dumps.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.trace.records import OperatorRecord, TensorRecord

_FORMAT_VERSION = 1


class TraceFormatError(ValueError):
    """A trace document does not follow the serialized trace schema.

    Raised by :meth:`Trace.from_dict` / :meth:`Trace.load` with a message
    naming the offending field, instead of the bare ``KeyError`` a
    malformed or hand-edited JSON file used to produce.
    """


def _type_name(value) -> str:
    return type(value).__name__


def validate_trace_dict(data) -> List[str]:
    """Structural problems of a serialized trace, as messages.

    Checks presence and types of every required field — the shared
    schema validator behind :meth:`Trace.from_dict` (which raises on the
    problems) and the ``TR001`` lint rule (which reports them all).
    """
    if not isinstance(data, dict):
        return [f"trace must be a JSON object, got {_type_name(data)}"]
    problems: List[str] = []
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        problems.append(
            f"unsupported trace format version {version!r} "
            f"(supported: {_FORMAT_VERSION})"
        )
    for key, kind in (("model_name", str), ("gpu_name", str),
                      ("batch_size", int)):
        if key not in data:
            problems.append(f"missing required field {key!r}")
        elif not isinstance(data[key], kind) or isinstance(data[key], bool):
            problems.append(
                f"field {key!r} must be {kind.__name__}, "
                f"got {_type_name(data[key])}"
            )
    if data.get("seq_len") is not None and \
            not isinstance(data.get("seq_len"), int):
        problems.append("field 'seq_len' must be an integer or null")

    tensors = data.get("tensors")
    if not isinstance(tensors, list):
        problems.append(
            f"field 'tensors' must be a list, got {_type_name(tensors)}"
        )
        tensors = []
    for i, entry in enumerate(tensors):
        if not isinstance(entry, dict):
            problems.append(f"tensors[{i}] must be an object")
            continue
        if not isinstance(entry.get("id"), int):
            problems.append(f"tensors[{i}]: 'id' must be an integer")
        dims = entry.get("dims")
        if not isinstance(dims, list) or \
                not all(isinstance(d, int) for d in dims):
            problems.append(f"tensors[{i}]: 'dims' must be a list of ints")
        for key in ("dtype", "category"):
            if not isinstance(entry.get(key), str):
                problems.append(f"tensors[{i}]: {key!r} must be a string")
        if "nbytes" in entry and not isinstance(entry["nbytes"], int):
            problems.append(f"tensors[{i}]: 'nbytes' must be an integer")

    operators = data.get("operators")
    if not isinstance(operators, list):
        problems.append(
            f"field 'operators' must be a list, got {_type_name(operators)}"
        )
        operators = []
    for i, op in enumerate(operators):
        if not isinstance(op, dict):
            problems.append(f"operators[{i}] must be an object")
            continue
        for key in ("name", "kind", "layer", "phase"):
            if not isinstance(op.get(key), str):
                problems.append(f"operators[{i}]: {key!r} must be a string")
        for key in ("duration", "flops"):
            if not isinstance(op.get(key), (int, float)) or \
                    isinstance(op.get(key), bool):
                problems.append(f"operators[{i}]: {key!r} must be a number")
        for key in ("inputs", "outputs"):
            refs = op.get(key)
            if not isinstance(refs, list) or \
                    not all(isinstance(t, int) for t in refs):
                problems.append(
                    f"operators[{i}]: {key!r} must be a list of tensor ids"
                )
    return problems


@dataclass
class Trace:
    """An operator-level single-GPU execution trace.

    Attributes
    ----------
    model_name:
        Workload the trace was collected from (zoo name).
    gpu_name:
        GPU the trace was collected on (``"A40"``, ``"A100"``, ...).
    batch_size:
        Batch size during collection; the performance model scales
        operator times when the simulated batch differs.
    seq_len:
        Sequence length for transformer traces (informational).
    operators:
        Operator table, in execution order.
    tensors:
        Tensor table keyed by tensor ID.
    """

    model_name: str
    gpu_name: str
    batch_size: int
    seq_len: Optional[int] = None
    operators: List[OperatorRecord] = field(default_factory=list)
    tensors: Dict[int, TensorRecord] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_tensor(self, record: TensorRecord) -> TensorRecord:
        if record.tensor_id in self.tensors:
            raise ValueError(f"duplicate tensor id {record.tensor_id}")
        self.tensors[record.tensor_id] = record
        return record

    def add_operator(self, record: OperatorRecord) -> OperatorRecord:
        for tid in (*record.inputs, *record.outputs):
            if tid not in self.tensors:
                raise ValueError(
                    f"operator {record.name} references unknown tensor {tid}"
                )
        self.operators.append(record)
        return record

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def ops_in_phase(self, phase: str) -> List[OperatorRecord]:
        return [op for op in self.operators if op.phase == phase]

    @property
    def forward_ops(self) -> List[OperatorRecord]:
        return self.ops_in_phase("forward")

    @property
    def backward_ops(self) -> List[OperatorRecord]:
        return self.ops_in_phase("backward")

    @property
    def optimizer_ops(self) -> List[OperatorRecord]:
        return self.ops_in_phase("optimizer")

    @property
    def total_duration(self) -> float:
        """Sum of all operator durations (GPU busy time)."""
        return sum(op.duration for op in self.operators)

    def phase_duration(self, phase: str) -> float:
        return sum(op.duration for op in self.ops_in_phase(phase))

    def op_bytes(self, op: OperatorRecord) -> int:
        """Bytes touched by an operator (inputs + outputs), from the
        tensor table — the regression model's memory feature."""
        return sum(self.tensors[t].nbytes for t in (*op.inputs, *op.outputs))

    def op_bytes_detail(self, op: OperatorRecord) -> Tuple[int, int, int]:
        """Bytes of an operator split as (input activations, output
        activations, parameters).  Parameter bytes cover ``weight`` and
        ``gradient`` tensors; they do not scale with batch size, which is
        why the performance model needs this split."""
        param = 0
        in_act = 0
        out_act = 0
        for tid in op.inputs:
            t = self.tensors[tid]
            if t.category in ("weight", "gradient"):
                param += t.nbytes
            else:
                in_act += t.nbytes
        for tid in op.outputs:
            t = self.tensors[tid]
            if t.category in ("weight", "gradient"):
                param += t.nbytes
            else:
                out_act += t.nbytes
        return in_act, out_act, param

    def weight_tensors(self) -> List[TensorRecord]:
        return [t for t in self.tensors.values() if t.category == "weight"]

    def gradient_tensors(self) -> List[TensorRecord]:
        return [t for t in self.tensors.values() if t.category == "gradient"]

    @property
    def gradient_bytes(self) -> int:
        """Total gradient payload — what data parallelism AllReduces."""
        return sum(t.nbytes for t in self.gradient_tensors())

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format_version": _FORMAT_VERSION,
            "model_name": self.model_name,
            "gpu_name": self.gpu_name,
            "batch_size": self.batch_size,
            "seq_len": self.seq_len,
            "tensors": [
                {
                    "id": t.tensor_id,
                    "dims": list(t.dims),
                    "dtype": t.dtype,
                    "category": t.category,
                    # Redundant with dims x dtype; written so consumers
                    # (and `repro verify`) can cross-check byte counts.
                    "nbytes": t.nbytes,
                }
                for t in self.tensors.values()
            ],
            "operators": [
                {
                    "name": op.name,
                    "kind": op.kind,
                    "layer": op.layer,
                    "phase": op.phase,
                    "duration": op.duration,
                    "flops": op.flops,
                    "inputs": list(op.inputs),
                    "outputs": list(op.outputs),
                }
                for op in self.operators
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Trace":
        """Rebuild a trace, validating the schema first.

        Malformed documents (missing fields, wrong types, unsupported
        versions) raise :class:`TraceFormatError` naming the offending
        field; value-level problems caught by the record constructors
        (unknown dtypes, negative durations, dangling tensor refs) are
        re-raised as :class:`TraceFormatError` with their position.
        """
        problems = validate_trace_dict(data)
        if problems:
            shown = "; ".join(problems[:3])
            more = f" (+{len(problems) - 3} more)" if len(problems) > 3 else ""
            raise TraceFormatError(f"invalid trace: {shown}{more}")
        trace = cls(
            model_name=data["model_name"],
            gpu_name=data["gpu_name"],
            batch_size=data["batch_size"],
            seq_len=data.get("seq_len"),
        )
        for i, t in enumerate(data["tensors"]):
            try:
                trace.add_tensor(
                    TensorRecord(t["id"], tuple(t["dims"]), t["dtype"],
                                 t["category"])
                )
            except ValueError as exc:
                raise TraceFormatError(f"tensors[{i}]: {exc}") from exc
        for i, op in enumerate(data["operators"]):
            try:
                trace.add_operator(
                    OperatorRecord(
                        name=op["name"],
                        kind=op["kind"],
                        layer=op["layer"],
                        phase=op["phase"],
                        duration=op["duration"],
                        flops=op["flops"],
                        inputs=tuple(op["inputs"]),
                        outputs=tuple(op["outputs"]),
                    )
                )
            except ValueError as exc:
                raise TraceFormatError(f"operators[{i}]: {exc}") from exc
        return trace

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "Trace":
        """Load a trace file, raising :class:`TraceFormatError` on
        malformed JSON or schema violations."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def trace_digest(trace: Trace) -> str:
    """Stable content digest of a trace (sha256 of its canonical JSON).

    The digest is memoized on the trace object and re-derived whenever the
    operator/tensor counts change, so repeated sweeps over the same trace
    pay the canonicalization cost once.
    """
    shape = (len(trace.operators), len(trace.tensors))
    memo = getattr(trace, "_digest_memo", None)
    if memo is not None and memo[0] == shape:
        return memo[1]
    canonical = json.dumps(trace.to_dict(), sort_keys=True)
    digest = hashlib.sha256(canonical.encode()).hexdigest()
    trace._digest_memo = (shape, digest)
    return digest
