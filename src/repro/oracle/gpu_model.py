"""Single-GPU operator execution model used by the hardware oracle.

This is a roofline model with saturating efficiency curves: an operator's
time is the larger of its math time and its memory time, plus a fixed
kernel launch overhead.  Efficiency rises with operator size (small kernels
cannot fill the machine), which is the physical effect behind the paper's
observation that Li's Model "assumes high GPU utilization, making it less
accurate ... [when] the kernels are small".

The oracle side samples *measured* times: base time multiplied by
deterministic per-operator lognormal noise (run-to-run variation a real
profiler would see).
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from repro.gpus.specs import GPUSpec
from repro.workloads.graph import Layer

#: Operator classes executed on tensor cores (matmul-shaped math).
MATMUL_KINDS = frozenset({"conv", "linear", "matmul"})

#: Math-efficiency half-saturation, expressed in seconds of peak work:
#: 0.5 us of peak throughput (~78 MFLOP on an A100) half-saturates the
#: device.  Typical batch-128 training operators sit far up the curve,
#: which is why a linear model fits them well.
_MATH_HALF_SATURATION_SECONDS = 5e-7

#: Memory-efficiency half-saturation, in seconds of peak bandwidth
#: (~60 KB on an A100).
_MEM_HALF_SATURATION_SECONDS = 3e-8

#: Best-achievable fraction of peak memory bandwidth.
_MAX_MEM_EFFICIENCY = 0.82

#: Vector (CUDA-core) ops reach a higher fraction of their (lower) peak.
_MAX_VECTOR_EFFICIENCY = 0.75

#: Architecture-specific kernel tuning: each GPU generation's libraries
#: are better at some operator classes than others, deviating from pure
#: peak-throughput ratios.  Deterministic per (GPU, class); this is the
#: component cross-GPU prediction cannot see, and the reason the paper's
#: Case 1 (new-GPU) errors exceed its Case 2 (same-GPU) errors.
_ARCH_TUNING_SIGMA = 0.09


class GPUExecutionModel:
    """Roofline + efficiency-curve execution model for one GPU.

    Parameters
    ----------
    spec:
        The GPU being modelled.
    noise_sigma:
        Standard deviation of the lognormal measurement noise.  Zero gives
        exact base times (useful in tests).
    seed:
        Base seed mixed with per-operator identity so noise is
        deterministic yet uncorrelated across operators.
    """

    def __init__(self, spec: GPUSpec, noise_sigma: float = 0.012, seed: int = 7):
        self.spec = spec
        self.noise_sigma = noise_sigma
        self.seed = seed

    # ------------------------------------------------------------------
    # Efficiency curves
    # ------------------------------------------------------------------
    def _math_efficiency(self, flops: float, peak: float) -> float:
        """Achieved fraction of *peak* FLOP/s for an op of *flops* work."""
        half_work = peak * _MATH_HALF_SATURATION_SECONDS
        return flops / (flops + half_work)

    def _mem_efficiency(self, nbytes: float) -> float:
        """Achieved fraction of peak memory bandwidth for *nbytes* moved."""
        half_bytes = self.spec.mem_bandwidth * _MEM_HALF_SATURATION_SECONDS
        return _MAX_MEM_EFFICIENCY * nbytes / (nbytes + half_bytes)

    def arch_tuning(self, kind: str) -> float:
        """Deterministic per-(GPU, operator-class) kernel-tuning factor."""
        return _arch_tuning(self.spec.name, kind)

    # ------------------------------------------------------------------
    # Base (noise-free) timing
    # ------------------------------------------------------------------
    def base_time(self, kind: str, flops: float, moved_bytes: float) -> float:
        """Noise-free execution time of one operator.

        ``kind`` selects the math unit: tensor cores for matmul-shaped ops,
        CUDA cores otherwise.  The returned time is
        ``max(math_time, memory_time) + kernel_overhead``.
        """
        if flops < 0 or moved_bytes < 0:
            raise ValueError("flops and moved_bytes must be non-negative")
        if kind in MATMUL_KINDS:
            peak = self.spec.matmul_flops
            max_eff = self.spec.max_efficiency
        else:
            peak = self.spec.vector_flops
            max_eff = _MAX_VECTOR_EFFICIENCY
        # time = flops / (peak * max_eff * flops/(flops + half)) simplifies
        # to (flops + half) / (peak * max_eff): the saturating-efficiency
        # roofline in closed form, robust for arbitrarily small operands.
        half_work = peak * _MATH_HALF_SATURATION_SECONDS
        math_time = (flops + half_work) / (peak * max_eff) if flops > 0 else 0.0
        half_bytes = self.spec.mem_bandwidth * _MEM_HALF_SATURATION_SECONDS
        mem_time = (
            (moved_bytes + half_bytes) / (self.spec.mem_bandwidth * _MAX_MEM_EFFICIENCY)
            if moved_bytes > 0
            else 0.0
        )
        tuning = self.arch_tuning(kind)
        return max(math_time, mem_time) * tuning + self.spec.kernel_overhead

    def layer_time(self, layer: Layer, batch: int, direction: str = "fwd",
                   shard: int = 1) -> float:
        """Noise-free time of one layer at a given batch size.

        ``shard`` > 1 models tensor parallelism: FLOPs, parameters, and the
        output activation divide across *shard* devices while the input is
        replicated.  Only tensor-parallelizable layers may be sharded.
        """
        if direction not in ("fwd", "bwd"):
            raise ValueError(f"direction must be 'fwd' or 'bwd', not {direction!r}")
        if shard < 1:
            raise ValueError("shard must be >= 1")
        if shard > 1 and not layer.tensor_parallelizable:
            raise ValueError(f"layer {layer.name} ({layer.kind}) cannot be sharded")
        flops_per_sample = layer.fwd_flops if direction == "fwd" else layer.bwd_flops
        flops = flops_per_sample * batch / shard
        moved = (
            layer.input_bytes(batch)
            + layer.output_bytes(batch) / shard
            + layer.param_bytes / shard
        )
        if direction == "bwd":
            moved *= 2.0  # gradients roughly double the traffic
        return self.base_time(layer.kind, flops, moved)

    # ------------------------------------------------------------------
    # Measured (noisy) timing
    # ------------------------------------------------------------------
    def _noise(self, *identity) -> float:
        """Deterministic lognormal noise factor for an operator identity."""
        if self.noise_sigma <= 0:
            return 1.0
        digest = hashlib.blake2b(
            repr((self.seed, self.spec.name) + identity).encode(),
            digest_size=8,
        ).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        return float(np.exp(rng.normal(0.0, self.noise_sigma)))

    def noise(self, *identity) -> float:
        """Public alias of :meth:`_noise` for collaborating components
        (e.g. the tracer) that time non-layer operators."""
        return self._noise(*identity)

    def measured_layer_time(self, layer: Layer, batch: int, direction: str = "fwd",
                            shard: int = 1, run: int = 0) -> float:
        """Measured time: base time with per-(operator, run) noise."""
        base = self.layer_time(layer, batch, direction, shard)
        return base * self._noise(layer.name, batch, direction, shard, run)


@functools.lru_cache(maxsize=None)
def _arch_tuning(gpu_name: str, kind: str) -> float:
    """:meth:`GPUExecutionModel.arch_tuning`, drawn once per (GPU name,
    operator class): it depends on nothing else, and each draw seeds a
    fresh NumPy generator."""
    digest = hashlib.blake2b(
        repr(("arch", gpu_name, kind)).encode(), digest_size=8
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    return float(np.exp(rng.normal(0.0, _ARCH_TUNING_SIGMA)))
