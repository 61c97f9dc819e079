"""Hierarchical AllReduce for multi-node systems.

The standard three-phase schedule for clusters of GPU nodes (fast NVLink
inside a node, slower fabric between nodes):

1. **intra-node reduce-scatter** — each node's GPUs shard-reduce locally;
2. **inter-node AllReduce** — GPU ``i`` of every node AllReduces shard
   ``i`` with its peers across nodes (rails);
3. **intra-node all-gather** — each node reassembles the full buffer.

Only ``nbytes / gpus_per_node`` crosses the slow inter-node fabric per
rail, which is why this beats a flat ring whenever inter-node bandwidth is
the bottleneck.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.collectives.ring import ring_all_gather, ring_all_reduce, ring_reduce_scatter
from repro.core.plan import GraphBuilder


def hierarchical_all_reduce(sim: GraphBuilder,
                            node_groups: Sequence[Sequence[str]],
                            nbytes: float,
                            deps: Sequence[int] = (),
                            tag: str = "hier_allreduce") -> List[int]:
    """AllReduce *nbytes* across all GPUs of *node_groups*.

    ``node_groups`` is a list of per-node GPU name lists; all nodes must
    have the same GPU count.  Returns the tasks completing the final
    intra-node all-gather.
    """
    num_nodes = len(node_groups)
    if num_nodes == 0:
        raise ValueError("need at least one node")
    per_node = len(node_groups[0])
    if any(len(group) != per_node for group in node_groups):
        raise ValueError("all nodes must have the same GPU count")
    if num_nodes == 1:
        return ring_all_reduce(sim, node_groups[0], nbytes, deps=deps, tag=tag)
    if per_node == 1:
        flat = [group[0] for group in node_groups]
        return ring_all_reduce(sim, flat, nbytes, deps=deps, tag=tag)

    # Phase 1: intra-node reduce-scatter (concurrent across nodes).
    scattered: List[List[int]] = []
    for node, group in enumerate(node_groups):
        scattered.append(ring_reduce_scatter(
            sim, group, nbytes, deps=deps, tag=f"{tag}.rs.n{node}"
        ))
    phase1 = [task for tasks in scattered for task in tasks]

    # Phase 2: inter-node AllReduce per rail (GPU i across all nodes),
    # each rail carrying its 1/per_node shard.
    rails_done: List[int] = []
    for rail in range(per_node):
        rail_gpus = [group[rail] for group in node_groups]
        rails_done.extend(ring_all_reduce(
            sim, rail_gpus, nbytes / per_node, deps=phase1,
            tag=f"{tag}.rail{rail}",
        ))

    # Phase 3: intra-node all-gather.
    finished: List[int] = []
    for node, group in enumerate(node_groups):
        finished.extend(ring_all_gather(
            sim, group, nbytes, deps=rails_done, tag=f"{tag}.ag.n{node}"
        ))
    return finished
