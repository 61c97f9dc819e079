"""Tree-based collective task generators.

NCCL switches between ring and tree algorithms by message size: rings
saturate bandwidth on large buffers, trees win on latency for small ones
(2 log2(n) hops instead of 2(n-1) steps).  TrioSim's extrapolators take a
``collective_scheme`` so users can explore that trade-off (paper §4.3:
"TrioSim supports extending ... collective communication schemes").

The tree AllReduce here is the classic binomial reduce-to-root followed by
a binomial broadcast; each level's transfers run concurrently and carry
the full buffer.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.plan import GraphBuilder


def _levels(n: int) -> int:
    levels = 0
    while (1 << levels) < n:
        levels += 1
    return levels


def tree_reduce(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
                root: int = 0, deps: Sequence[int] = (),
                tag: str = "tree_reduce") -> List[int]:
    """Binomial-tree reduce onto ``gpus[root]``; returns the final tasks.

    Level ``k`` pairs ranks ``2^k`` apart (relative to the root): the
    higher rank of each pair sends its partial sum to the lower.
    """
    n = len(gpus)
    if n <= 1 or nbytes <= 0:
        return [sim.add_barrier(f"{tag}.noop", deps=deps)]
    prev: Sequence[int] = deps
    # rank r's position relative to the root
    rel = lambda r: (r - root) % n
    for level in range(_levels(n)):
        stride = 1 << level
        tasks = []
        for r in range(n):
            pos = rel(r)
            if pos % (2 * stride) == stride and pos < n:
                dst_pos = pos - stride
                dst = gpus[(dst_pos + root) % n]
                tasks.append(sim.add_transfer(
                    f"{tag}.l{level}.{gpus[r]}", gpus[r], dst, nbytes,
                    deps=prev, collective=tag,
                ))
        if tasks:
            prev = tasks
    return list(prev)


def tree_broadcast(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
                   root: int = 0, deps: Sequence[int] = (),
                   tag: str = "tree_broadcast") -> List[int]:
    """Binomial-tree broadcast from ``gpus[root]``; returns the leaf-level
    tasks (the collective's completion)."""
    n = len(gpus)
    if n <= 1 or nbytes <= 0:
        return [sim.add_barrier(f"{tag}.noop", deps=deps)]
    prev: Sequence[int] = deps
    levels = _levels(n)
    rel = lambda r: (r - root) % n
    last_level: List[int] = []
    for level in range(levels - 1, -1, -1):
        stride = 1 << level
        tasks = []
        for r in range(n):
            pos = rel(r)
            if pos % (2 * stride) == 0 and pos + stride < n:
                dst = gpus[(pos + stride + root) % n]
                tasks.append(sim.add_transfer(
                    f"{tag}.l{level}.{gpus[r]}", gpus[r], dst, nbytes,
                    deps=prev, collective=tag,
                ))
        if tasks:
            prev = tasks
            last_level = tasks
    return list(last_level or prev)


def tree_all_reduce(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
                    deps: Sequence[int] = (),
                    tag: str = "tree_allreduce") -> List[int]:
    """Reduce-then-broadcast AllReduce: 2 log2(n) latency-bound levels,
    each moving the full buffer (bandwidth-suboptimal vs the ring)."""
    n = len(gpus)
    if n <= 1 or nbytes <= 0:
        return [sim.add_barrier(f"{tag}.noop", deps=deps)]
    reduced = tree_reduce(sim, gpus, nbytes, root=0, deps=deps,
                          tag=f"{tag}.reduce")
    return tree_broadcast(sim, gpus, nbytes, root=0, deps=reduced,
                          tag=f"{tag}.bcast")
