"""Ring-based collective task generators.

Each generator records the transfer tasks of one NCCL-style collective
over an ordered ring of GPUs into a
:data:`~repro.core.plan.GraphBuilder`, and returns the row ids of the
tasks whose completion marks the collective's end (for dependency
chaining).

The ring AllReduce follows the classic 2(n-1)-step schedule (paper §2.1):
n-1 reduce-scatter steps then n-1 all-gather steps, every device sending
one ``nbytes/n`` chunk to its right neighbour per step.  Steps are chained
by dependencies; transfers within a step run concurrently and share links
according to the network model.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.core.plan import GraphBuilder


def _rounds(sim: GraphBuilder, gpus: Sequence[str], chunk: float,
            num_rounds: int, deps: Sequence[int], tag: str) -> List[int]:
    """Run *num_rounds* neighbour-exchange rounds; returns the last round.

    Rounds are joined through a zero-cost barrier so the dependency count
    stays O(n) per round instead of O(n^2) — at hundreds of GPUs the edge
    count would otherwise dominate simulation time.
    """
    n = len(gpus)
    prev: Sequence[int] = deps
    for step in range(num_rounds):
        if step > 0 or len(prev) > n:
            prev = [sim.add_barrier(f"{tag}.step{step}.sync", deps=prev)]
        current = [
            sim.add_transfer(
                f"{tag}.step{step}.{gpus[i]}",
                gpus[i],
                gpus[(i + 1) % n],
                chunk,
                deps=prev,
                collective=tag,
            )
            for i in range(n)
        ]
        prev = current
    return list(prev)


def ring_all_reduce(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
                    deps: Sequence[int] = (), tag: str = "allreduce") -> List[int]:
    """AllReduce *nbytes* across *gpus*; returns the completing tasks."""
    n = len(gpus)
    if n <= 1 or nbytes <= 0:
        return [sim.add_barrier(f"{tag}.noop", deps=deps)]
    return _rounds(sim, gpus, nbytes / n, 2 * (n - 1), deps, tag)


def ring_reduce_scatter(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
                        deps: Sequence[int] = (),
                        tag: str = "reduce_scatter") -> List[int]:
    """Reduce-scatter: each GPU ends with one reduced ``nbytes/n`` shard."""
    n = len(gpus)
    if n <= 1 or nbytes <= 0:
        return [sim.add_barrier(f"{tag}.noop", deps=deps)]
    return _rounds(sim, gpus, nbytes / n, n - 1, deps, tag)


def ring_all_gather(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
                    deps: Sequence[int] = (),
                    tag: str = "allgather") -> List[int]:
    """All-gather shards into a full *nbytes* buffer on every GPU."""
    n = len(gpus)
    if n <= 1 or nbytes <= 0:
        return [sim.add_barrier(f"{tag}.noop", deps=deps)]
    return _rounds(sim, gpus, nbytes / n, n - 1, deps, tag)


def ring_reduce(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
                root: int = 0, deps: Sequence[int] = (),
                tag: str = "reduce") -> List[int]:
    """Reduce to ``gpus[root]``: n-1 pipelined hops around the ring."""
    n = len(gpus)
    if n <= 1 or nbytes <= 0:
        return [sim.add_barrier(f"{tag}.noop", deps=deps)]
    prev: Sequence[int] = deps
    # Partial sums flow around the ring towards the root, one hop per
    # step: root+1 -> root+2 -> ... -> root.
    for step in range(n - 1):
        src = gpus[(root + 1 + step) % n]
        dst = gpus[(root + 2 + step) % n]
        task = sim.add_transfer(
            f"{tag}.step{step}.{src}", src, dst, nbytes, deps=prev, collective=tag
        )
        prev = [task]
    return list(prev)


def ring_broadcast(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
                   root: int = 0, deps: Sequence[int] = (),
                   tag: str = "broadcast") -> List[int]:
    """Broadcast from ``gpus[root]``: pipelined hops around the ring."""
    n = len(gpus)
    if n <= 1 or nbytes <= 0:
        return [sim.add_barrier(f"{tag}.noop", deps=deps)]
    prev: Sequence[int] = deps
    tasks = []
    for step in range(n - 1):
        src = gpus[(root + step) % n]
        dst = gpus[(root + step + 1) % n]
        task = sim.add_transfer(
            f"{tag}.step{step}.{src}", src, dst, nbytes, deps=prev, collective=tag
        )
        prev = [task]
        tasks.append(task)
    return [tasks[-1]]


def ring_scatter(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
                 root: int = 0, deps: Sequence[int] = (),
                 tag: str = "scatter") -> List[int]:
    """Scatter ``nbytes/n`` shards from the root to every other GPU."""
    n = len(gpus)
    if n <= 1 or nbytes <= 0:
        return [sim.add_barrier(f"{tag}.noop", deps=deps)]
    chunk = nbytes / n
    tasks = [
        sim.add_transfer(
            f"{tag}.{gpus[i]}", gpus[root], gpus[i], chunk, deps=deps, collective=tag
        )
        for i in range(n)
        if i != root
    ]
    return tasks


def ring_gather(sim: GraphBuilder, gpus: Sequence[str], nbytes: float,
                root: int = 0, deps: Sequence[int] = (),
                tag: str = "gather") -> List[int]:
    """Gather ``nbytes/n`` shards from every GPU onto the root."""
    n = len(gpus)
    if n <= 1 or nbytes <= 0:
        return [sim.add_barrier(f"{tag}.noop", deps=deps)]
    chunk = nbytes / n
    tasks = [
        sim.add_transfer(
            f"{tag}.{gpus[i]}", gpus[i], gpus[root], chunk, deps=deps, collective=tag
        )
        for i in range(n)
        if i != root
    ]
    return tasks
