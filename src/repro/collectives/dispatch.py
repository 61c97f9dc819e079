"""Collective-scheme dispatch.

The extrapolators call :func:`all_reduce` with the configured scheme name
so users can switch AllReduce algorithms without touching parallelism
code — the extensibility the paper claims for "collective communication
schemes".
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.collectives.hierarchical import hierarchical_all_reduce
from repro.collectives.ring import ring_all_reduce
from repro.collectives.tree import tree_all_reduce
from repro.core.plan import GraphBuilder

SCHEMES = ("ring", "tree", "hierarchical")


def all_reduce(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
               deps: Sequence[int] = (), tag: str = "allreduce",
               scheme: str = "ring",
               node_groups: Optional[Sequence[Sequence[str]]] = None
               ) -> List[int]:
    """AllReduce *nbytes* across *gpus* with the chosen algorithm.

    ``hierarchical`` requires ``node_groups`` (per-node GPU lists whose
    concatenation equals *gpus*).
    """
    if scheme == "ring":
        return ring_all_reduce(sim, gpus, nbytes, deps=deps, tag=tag)
    if scheme == "tree":
        return tree_all_reduce(sim, gpus, nbytes, deps=deps, tag=tag)
    if scheme == "hierarchical":
        if node_groups is None:
            raise ValueError("hierarchical AllReduce needs node_groups")
        flat = [gpu for group in node_groups for gpu in group]
        if sorted(flat) != sorted(gpus):
            raise ValueError("node_groups must partition the GPU set")
        return hierarchical_all_reduce(sim, node_groups, nbytes,
                                       deps=deps, tag=tag)
    raise ValueError(f"unknown collective scheme {scheme!r}; known: {SCHEMES}")
