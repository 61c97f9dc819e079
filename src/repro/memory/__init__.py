"""Per-GPU memory estimation."""

from repro.memory.estimator import MemoryEstimate, check_fits, estimate_memory

__all__ = ["MemoryEstimate", "check_fits", "estimate_memory"]
