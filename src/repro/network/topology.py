"""Network topology builders, the topology registry, and ``TopologySpec``.

Every builder returns a :class:`networkx.Graph` whose nodes are device
names (``gpu0`` ... ``gpuN-1`` plus any switch nodes) and whose edges carry
``bandwidth`` (bytes/second, per direction) and ``latency`` (seconds)
attributes.  The paper's configurable topologies — ring, switch
(NVSwitch-style crossbar), mesh, fat tree, the DGX hypercube mesh, and the
Hop case-study graphs — are all provided, plus the datacenter fabrics the
ROADMAP targets: a two-tier leaf-spine Clos (:func:`leaf_spine`, with an
explicit oversubscription knob) and a three-tier k-ary fat tree
(:func:`fat_tree_clos`).  Both are *multi-path*: GPU pairs on different
leaves/pods see several equal-cost shortest paths, which the routing
strategies in :mod:`repro.network.routing` choose between.

Construction is registry-backed: every builder registers into
:data:`TOPOLOGIES` under a stable name with a typed parameter schema, and
:class:`TopologySpec` — a serializable ``(name, params)`` record — is the
config-facing handle.  :func:`build_topology` keeps its historical
``(name, n, bandwidth, latency)`` signature as a thin shim over the
registry, so existing call sites (and cache keys for parameterless
topologies) are unchanged.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import networkx as nx


def gpu_names(n: int) -> List[str]:
    """Canonical device names for an *n*-GPU system."""
    return [f"gpu{i}" for i in range(n)]


def _empty(n: int) -> nx.Graph:
    if n < 1:
        raise ValueError("need at least one node")
    graph = nx.Graph()
    graph.add_nodes_from(gpu_names(n))
    return graph


def _add_link(graph: nx.Graph, u: str, v: str, bandwidth: float, latency: float) -> None:
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if latency < 0:
        raise ValueError("latency must be non-negative")
    graph.add_edge(u, v, bandwidth=float(bandwidth), latency=float(latency))


def ring(n: int, bandwidth: float, latency: float = 1e-6) -> nx.Graph:
    """Bidirectional ring of *n* GPUs (NVLink ring / paired PCIe)."""
    graph = _empty(n)
    names = gpu_names(n)
    if n == 1:
        return graph
    if n == 2:
        _add_link(graph, names[0], names[1], bandwidth, latency)
        return graph
    for i in range(n):
        _add_link(graph, names[i], names[(i + 1) % n], bandwidth, latency)
    return graph


def switch(n: int, bandwidth: float, latency: float = 1e-6,
           switch_name: str = "switch0") -> nx.Graph:
    """NVSwitch-style crossbar: every GPU has a full-bandwidth port into a
    central switch, enabling contention-free any-to-any communication."""
    graph = _empty(n)
    graph.add_node(switch_name)
    for name in gpu_names(n):
        _add_link(graph, name, switch_name, bandwidth, latency / 2)
    return graph


def mesh2d(rows: int, cols: int, bandwidth: float, latency: float = 1e-6) -> nx.Graph:
    """2-D mesh of ``rows x cols`` GPUs (wafer-scale layout, §7.1)."""
    n = rows * cols
    graph = _empty(n)
    names = gpu_names(n)
    for r in range(rows):
        for c in range(cols):
            idx = r * cols + c
            if c + 1 < cols:
                _add_link(graph, names[idx], names[idx + 1], bandwidth, latency)
            if r + 1 < rows:
                _add_link(graph, names[idx], names[idx + cols], bandwidth, latency)
    return graph


def wafer_mesh(rows: int, cols: int, bandwidth: float,
               latency: float = 1e-6) -> nx.Graph:
    """2-D mesh with GPUs named in boustrophedon (snake) order.

    Consecutive GPU indices are physically adjacent, so the data-parallel
    AllReduce ring gpu0 - gpu1 - ... - gpuN-1 embeds onto distinct mesh
    links — except the ring-closing hop back to gpu0, which crosses the
    wafer and becomes the slow link the flow model must handle (this is
    the wafer-scale case-study topology of §7.1).
    """
    n = rows * cols
    graph = _empty(n)
    index = {}
    snake = 0
    for r in range(rows):
        cs = range(cols) if r % 2 == 0 else range(cols - 1, -1, -1)
        for c in cs:
            index[(r, c)] = f"gpu{snake}"
            snake += 1
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                _add_link(graph, index[(r, c)], index[(r, c + 1)], bandwidth, latency)
            if r + 1 < rows:
                _add_link(graph, index[(r, c)], index[(r + 1, c)], bandwidth, latency)
    return graph


def fat_tree(n: int, bandwidth: float, latency: float = 1e-6,
             radix: int = 4, uplink_factor: float = 2.0) -> nx.Graph:
    """Two-level fat tree: leaf switches of *radix* GPUs, fattened uplinks
    into a root switch (the PCIe hierarchical-tree arrangement)."""
    graph = _empty(n)
    names = gpu_names(n)
    num_leaves = (n + radix - 1) // radix
    graph.add_node("root")
    for leaf in range(num_leaves):
        leaf_name = f"leaf{leaf}"
        graph.add_node(leaf_name)
        _add_link(graph, leaf_name, "root", bandwidth * uplink_factor, latency)
        for i in range(leaf * radix, min((leaf + 1) * radix, n)):
            _add_link(graph, names[i], leaf_name, bandwidth, latency / 2)
    return graph


def dgx_hypercube(bandwidth: float, latency: float = 1e-6) -> nx.Graph:
    """The DGX-2-style 8-GPU hypercube mesh with doubled-bandwidth links
    closing a ring (paper §2.1)."""
    graph = _empty(8)
    names = gpu_names(8)
    for i in range(8):
        for bit in (1, 2, 4):
            j = i ^ bit
            if i < j:
                _add_link(graph, names[i], names[j], bandwidth, latency)
    # Double-bandwidth links strengthening the AllReduce ring 0-1-3-2-6-7-5-4.
    ring_order = [0, 1, 3, 2, 6, 7, 5, 4]
    for a, b in zip(ring_order, ring_order[1:] + ring_order[:1]):
        u, v = names[a], names[b]
        graph[u][v]["bandwidth"] = 2 * bandwidth
    return graph


def multi_node(num_nodes: int, gpus_per_node: int,
               intra_bandwidth: float, inter_bandwidth: float,
               intra_latency: float = 1e-6,
               inter_latency: float = 5e-6) -> nx.Graph:
    """A cluster of GPU nodes: an NVSwitch-style crossbar inside each node
    and a ring of node switches between nodes (the slow fabric).

    GPU ``i`` of node ``k`` is ``gpu{k * gpus_per_node + i}``; use
    :func:`node_groups` to get the per-node name lists for hierarchical
    collectives.
    """
    if num_nodes < 1 or gpus_per_node < 1:
        raise ValueError("num_nodes and gpus_per_node must be >= 1")
    n = num_nodes * gpus_per_node
    graph = _empty(n)
    names = gpu_names(n)
    for node in range(num_nodes):
        sw = f"nsw{node}"
        graph.add_node(sw)
        for i in range(gpus_per_node):
            _add_link(graph, names[node * gpus_per_node + i], sw,
                      intra_bandwidth, intra_latency / 2)
    if num_nodes == 2:
        _add_link(graph, "nsw0", "nsw1", inter_bandwidth, inter_latency)
    elif num_nodes > 2:
        for node in range(num_nodes):
            _add_link(graph, f"nsw{node}", f"nsw{(node + 1) % num_nodes}",
                      inter_bandwidth, inter_latency)
    return graph


def node_groups(num_nodes: int, gpus_per_node: int) -> List[List[str]]:
    """Per-node GPU name lists matching :func:`multi_node`'s layout."""
    names = gpu_names(num_nodes * gpus_per_node)
    return [
        names[node * gpus_per_node:(node + 1) * gpus_per_node]
        for node in range(num_nodes)
    ]


def ring_with_chords(n: int, bandwidth: float, latency: float = 1e-6) -> nx.Graph:
    """Hop's ring-based graph: a bidirectional ring plus a chord from each
    node to its most distant node (paper Figure 16a, top)."""
    graph = ring(n, bandwidth, latency)
    names = gpu_names(n)
    for i in range(n):
        j = (i + n // 2) % n
        if not graph.has_edge(names[i], names[j]):
            _add_link(graph, names[i], names[j], bandwidth, latency)
    return graph


def double_ring(n: int, bandwidth: float, latency: float = 1e-6) -> nx.Graph:
    """Hop's double-ring graph: two rings of ``n/2`` nodes interconnected
    node-to-node (paper Figure 16a, bottom)."""
    if n % 2:
        raise ValueError("double_ring needs an even node count")
    half = n // 2
    graph = _empty(n)
    names = gpu_names(n)
    for ring_idx in (0, 1):
        base = ring_idx * half
        for i in range(half):
            u = names[base + i]
            v = names[base + (i + 1) % half]
            if u != v and not graph.has_edge(u, v):
                _add_link(graph, u, v, bandwidth, latency)
    for i in range(half):
        _add_link(graph, names[i], names[half + i], bandwidth, latency)
    return graph


def leaf_spine(leaves: int, spines: int, gpus_per_leaf: int,
               bandwidth: float, latency: float = 1e-6,
               oversubscription: float = 1.0,
               spine_latency: Optional[float] = None,
               n: Optional[int] = None) -> nx.Graph:
    """Two-tier leaf-spine Clos fabric (the datacenter workhorse).

    ``leaves * gpus_per_leaf`` GPU ports (or *n*, if given, for a
    partially filled last leaf): GPU ``i`` hangs off leaf
    ``leaf{i // gpus_per_leaf}`` on a *bandwidth* access link, and every
    leaf connects to every spine — so two GPUs on different leaves see
    ``spines`` equal-cost 4-hop paths, the multi-path substrate ECMP /
    flowlet / adaptive routing chooses between.

    Each leaf's total uplink capacity is its total downlink capacity
    divided by *oversubscription* (1.0 = full bisection, rearrangeably
    non-blocking; 4.0 = a typical 4:1 oversubscribed pod), split evenly
    across the spines::

        uplink_bw = gpus_per_leaf * bandwidth / (spines * oversubscription)

    GPU numbering is leaf-major, so ``node_groups(leaves, gpus_per_leaf)``
    gives the per-leaf GPU lists and hierarchical collectives with
    ``gpus_per_node == gpus_per_leaf`` align with the physical pods
    (multi-node aware); host augmentation attaches to the GPU names as on
    every other topology.
    """
    if leaves < 1 or spines < 1 or gpus_per_leaf < 1:
        raise ValueError("leaves, spines, and gpus_per_leaf must be >= 1")
    if oversubscription <= 0:
        raise ValueError("oversubscription must be positive")
    capacity = leaves * gpus_per_leaf
    if n is None:
        n = capacity
    if not 1 <= n <= capacity:
        raise ValueError(
            f"leaf_spine with {leaves} leaves x {gpus_per_leaf} GPUs holds "
            f"at most {capacity} GPUs, got n={n}"
        )
    graph = _empty(n)
    names = gpu_names(n)
    uplink_bw = gpus_per_leaf * bandwidth / (spines * oversubscription)
    uplink_lat = latency if spine_latency is None else spine_latency
    used_leaves = (n + gpus_per_leaf - 1) // gpus_per_leaf
    for spine in range(spines):
        graph.add_node(f"spine{spine}")
    for leaf in range(used_leaves):
        leaf_name = f"leaf{leaf}"
        graph.add_node(leaf_name)
        for i in range(leaf * gpus_per_leaf,
                       min((leaf + 1) * gpus_per_leaf, n)):
            _add_link(graph, names[i], leaf_name, bandwidth, latency / 2)
        for spine in range(spines):
            _add_link(graph, leaf_name, f"spine{spine}",
                      uplink_bw, uplink_lat)
    return graph


def fat_tree_clos(k: int, bandwidth: float, latency: float = 1e-6,
                  n: Optional[int] = None) -> nx.Graph:
    """Three-tier k-ary fat tree (Al-Fares Clos), ``k^3 / 4`` GPU ports.

    *k* pods of ``k/2`` edge and ``k/2`` aggregation switches plus
    ``(k/2)^2`` core switches, every link at *bandwidth* — full bisection
    by multiplicity, the canonical datacenter Clos.  Two GPUs in
    different pods see ``(k/2)^2`` equal-cost 6-hop paths (one per
    aggregation x core choice); same-pod, different-edge pairs see
    ``k/2``.  GPUs are numbered pod-major then edge-major, so pods are
    contiguous GPU ranges (``node_groups(k, k*k//4)`` recovers them).
    *n* places only the first *n* GPU ports (default: all of them).
    """
    if k < 2 or k % 2:
        raise ValueError(f"fat_tree_clos needs an even k >= 2, got k={k}")
    half = k // 2
    capacity = k * half * half
    if n is None:
        n = capacity
    if not 1 <= n <= capacity:
        raise ValueError(
            f"fat_tree_clos(k={k}) holds at most {capacity} GPUs, got n={n}"
        )
    graph = _empty(n)
    names = gpu_names(n)
    for core in range(half * half):
        graph.add_node(f"core{core}")
    for pod in range(k):
        for e in range(half):
            edge_name = f"edge{pod}_{e}"
            graph.add_node(edge_name)
            for port in range(half):
                gpu = (pod * half + e) * half + port
                if gpu < n:
                    _add_link(graph, names[gpu], edge_name,
                              bandwidth, latency / 2)
        for a in range(half):
            agg_name = f"agg{pod}_{a}"
            graph.add_node(agg_name)
            for e in range(half):
                _add_link(graph, f"edge{pod}_{e}", agg_name,
                          bandwidth, latency)
            # Aggregation switch ``a`` reaches cores ``a*half .. a*half+half-1``.
            for c in range(half):
                _add_link(graph, agg_name, f"core{a * half + c}",
                          bandwidth, latency)
    return graph


# ----------------------------------------------------------------------
# The topology registry and TopologySpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologyEntry:
    """One registered topology: a uniform ``(n, bandwidth, latency,
    **params)`` builder plus its typed extra-parameter schema."""

    name: str
    builder: Callable[..., nx.Graph]
    #: Extra builder parameters: name -> expected type (int/float/bool).
    #: Everything outside this schema is rejected before the builder runs.
    params_schema: Mapping[str, type]
    description: str = ""
    #: Whether GPU pairs can see multiple equal-cost shortest paths (the
    #: prerequisite for non-trivial routing strategies); feeds lint NW004.
    multipath: bool = False


class TopologyRegistry:
    """Named topology builders with uniform signatures.

    Every builder registers under a stable name with a typed
    ``params_schema``, so new fabrics plug in without touching core
    dispatch code, and :class:`TopologySpec` params are validated before
    any graph is built.
    """

    def __init__(self):
        self._entries: "OrderedDict[str, TopologyEntry]" = OrderedDict()

    def register(self, name: str, builder: Callable[..., nx.Graph],
                 params_schema: Optional[Mapping[str, type]] = None,
                 description: str = "", multipath: bool = False,
                 override: bool = False) -> TopologyEntry:
        """Register *builder* (``(n, bandwidth, latency, **params)``).

        Raises ``ValueError`` on a duplicate name unless ``override=True``
        (the hook for swapping in an experimental variant).
        """
        if name in self._entries and not override:
            raise ValueError(
                f"topology {name!r} is already registered; pass "
                "override=True to replace it"
            )
        entry = TopologyEntry(
            name=name, builder=builder,
            params_schema=dict(params_schema or {}),
            description=description, multipath=multipath,
        )
        self._entries[name] = entry
        return entry

    def names(self) -> List[str]:
        return list(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> TopologyEntry:
        if name not in self._entries:
            raise KeyError(
                f"unknown topology {name!r}; known: {sorted(self._entries)}"
            )
        return self._entries[name]

    def supports_param(self, name: str, param: str) -> bool:
        """Whether topology *name* accepts extra parameter *param*."""
        return name in self._entries and \
            param in self._entries[name].params_schema

    def validate_params(self, name: str, params: Mapping) -> Dict:
        """Type-check and coerce *params* against the schema of *name*.

        Unknown parameter names raise ``ValueError`` (schema drift fails
        loudly, exactly like unknown config fields); numeric values are
        coerced to the declared type so JSON round-trips (which turn ints
        into floats and back) cannot change a build.
        """
        entry = self.get(name)
        unknown = set(params) - set(entry.params_schema)
        if unknown:
            raise ValueError(
                f"topology {name!r} does not accept parameter(s) "
                f"{sorted(unknown)}; schema: {sorted(entry.params_schema)}"
            )
        coerced = {}
        for key, value in params.items():
            expected = entry.params_schema[key]
            try:
                coerced[key] = expected(value)
            except (TypeError, ValueError):
                raise ValueError(
                    f"topology {name!r} parameter {key!r} must be "
                    f"{expected.__name__}-like, got {value!r}"
                )
        return coerced

    def build(self, name: str, n: int, bandwidth: float,
              latency: float = 1e-6, **params) -> nx.Graph:
        """Build topology *name* for *n* GPUs after validating *params*."""
        entry = self.get(name)
        return entry.builder(n, bandwidth, latency,
                             **self.validate_params(name, params))


@dataclass(frozen=True)
class TopologySpec:
    """A serializable topology handle: a registered name plus its extra
    builder parameters.

    The config-facing form of the registry — travels inside
    :class:`~repro.core.config.SimulationConfig` (and therefore through
    sweep specs, cache keys, and process boundaries)::

        TopologySpec("leaf_spine",
                     {"gpus_per_leaf": 8, "spines": 4,
                      "oversubscription": 2.0})

    ``num_gpus`` / ``link_bandwidth`` / ``link_latency`` stay on the
    config; the spec only carries what the builder needs beyond them.
    """

    name: str
    params: Mapping = field(default_factory=dict)

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("TopologySpec needs a non-empty name string")
        object.__setattr__(self, "params", dict(self.params))

    def canonical(self) -> Tuple:
        """Hashable content identity (the cache-key building block)."""
        return (self.name, tuple(sorted(self.params.items())))

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: Mapping) -> "TopologySpec":
        unknown = set(data) - {"name", "params"}
        if unknown:
            raise ValueError(
                f"unknown TopologySpec keys: {sorted(unknown)} "
                "(expected 'name' and optional 'params')"
            )
        if "name" not in data:
            raise ValueError("TopologySpec dict needs a 'name'")
        return cls(name=data["name"], params=dict(data.get("params") or {}))

    def build(self, n: int, bandwidth: float, latency: float = 1e-6,
              registry: Optional[TopologyRegistry] = None) -> nx.Graph:
        """Build this spec's graph through the (default) registry."""
        return (registry or TOPOLOGIES).build(
            self.name, n, bandwidth, latency, **self.params)


#: The process-wide default registry every builder below registers into.
TOPOLOGIES = TopologyRegistry()

#: Module-level registration helper bound to the default registry.
register_topology = TOPOLOGIES.register


def topology_names() -> List[str]:
    """Registered topology names, in registration order."""
    return TOPOLOGIES.names()


def _build_dgx(n: int, bandwidth: float, latency: float = 1e-6) -> nx.Graph:
    # Fixed 8-GPU system; n is accepted (and ignored) for builder-signature
    # uniformity — lint rule CF001 reports configs asking for more GPUs
    # than the topology provides, exactly as the pre-registry dispatch did.
    return dgx_hypercube(bandwidth, latency)


def _build_mesh(builder: Callable) -> Callable:
    def build(n: int, bandwidth: float, latency: float = 1e-6,
              rows: int = 0) -> nx.Graph:
        rows = rows or max(1, int(math.isqrt(n)))
        if rows < 1 or n % rows:
            raise ValueError(
                f"mesh rows={rows} must divide the GPU count {n}"
            )
        return builder(rows, n // rows, bandwidth, latency)

    return build


def _build_multi_node(n: int, bandwidth: float, latency: float = 1e-6,
                      gpus_per_node: int = 8,
                      inter_bandwidth: float = 0.0,
                      inter_latency: float = 5e-6) -> nx.Graph:
    if gpus_per_node < 1 or n % gpus_per_node:
        raise ValueError(
            f"multi_node gpus_per_node={gpus_per_node} must divide the "
            f"GPU count {n}"
        )
    return multi_node(n // gpus_per_node, gpus_per_node,
                      intra_bandwidth=bandwidth,
                      inter_bandwidth=inter_bandwidth or bandwidth / 4,
                      intra_latency=latency, inter_latency=inter_latency)


def _build_leaf_spine(n: int, bandwidth: float, latency: float = 1e-6,
                      gpus_per_leaf: int = 8, spines: int = 0,
                      oversubscription: float = 1.0,
                      spine_latency: float = 0.0) -> nx.Graph:
    if gpus_per_leaf < 1:
        raise ValueError("gpus_per_leaf must be >= 1")
    leaves = (n + gpus_per_leaf - 1) // gpus_per_leaf
    spines = spines or max(2, (leaves + 1) // 2)
    return leaf_spine(leaves, spines, gpus_per_leaf, bandwidth, latency,
                      oversubscription=oversubscription,
                      spine_latency=spine_latency or None, n=n)


def _build_fat_tree_clos(n: int, bandwidth: float, latency: float = 1e-6,
                         k: int = 0) -> nx.Graph:
    if not k:
        k = 2
        while k * k * k // 4 < n:
            k += 2
    return fat_tree_clos(k, bandwidth, latency, n=n)


register_topology("ring", ring,
                  description="bidirectional NVLink-style ring")
register_topology("switch", switch,
                  description="NVSwitch-style contention-free crossbar")
register_topology(
    "fat_tree", fat_tree,
    params_schema={"radix": int, "uplink_factor": float},
    description="two-level PCIe-style tree with fattened uplinks")
register_topology("dgx_hypercube", _build_dgx,
                  description="DGX-2 8-GPU hypercube mesh")
register_topology("ring_with_chords", ring_with_chords,
                  description="Hop ring + antipodal chords")
register_topology("double_ring", double_ring,
                  description="Hop double ring")
register_topology(
    "mesh2d", _build_mesh(mesh2d), params_schema={"rows": int},
    description="2-D mesh (rows x n/rows), row-major GPU layout")
register_topology(
    "wafer_mesh", _build_mesh(wafer_mesh), params_schema={"rows": int},
    description="2-D mesh with boustrophedon (snake) GPU layout")
register_topology(
    "multi_node", _build_multi_node,
    params_schema={"gpus_per_node": int, "inter_bandwidth": float,
                   "inter_latency": float},
    description="per-node crossbars joined by a ring of node switches")
register_topology(
    "leaf_spine", _build_leaf_spine,
    params_schema={"gpus_per_leaf": int, "spines": int,
                   "oversubscription": float, "spine_latency": float},
    description="two-tier leaf-spine Clos with an oversubscription knob",
    multipath=True)
register_topology(
    "fat_tree_clos", _build_fat_tree_clos, params_schema={"k": int},
    description="three-tier k-ary fat tree (Al-Fares Clos)",
    multipath=True)


def build_topology(name: str, n: int, bandwidth: float,
                   latency: float = 1e-6, **params) -> nx.Graph:
    """Build a named topology through the registry.

    The historical entry point, kept as a thin shim: the positional
    ``(name, n, bandwidth, latency)`` signature is unchanged (existing
    call sites and cache keys are untouched) and extra builder parameters
    — ``oversubscription``, ``spines``, ``k``, ... — pass through as
    keyword arguments, validated against the registered schema.

    Raises ``KeyError`` naming the known topologies for an unknown name,
    ``ValueError`` for schema/shape violations.
    """
    return TOPOLOGIES.build(name, n, bandwidth, latency, **params)


#: Process-level LRU of built (optionally host-augmented) topologies.
#: Sweep points sharing network parameters reuse one graph instead of
#: rebuilding — callers that mutate link attributes (fault injection)
#: must ``.copy()`` what they get back.
_TOPOLOGY_CACHE: "OrderedDict[tuple, nx.Graph]" = OrderedDict()
TOPOLOGY_CACHE_LIMIT = 32


def add_host_links(graph: nx.Graph, n: int, bandwidth: float,
                   latency: float) -> None:
    """Add a ``host`` node linked to each of the first *n* GPUs of
    *graph*, in place (the host-transfer augmentation)."""
    graph.add_node("host")
    for gpu in gpu_names(n):
        graph.add_edge("host", gpu,
                       bandwidth=float(bandwidth), latency=float(latency))


def build_topology_cached(name: str, n: int, bandwidth: float,
                          latency: float = 1e-6,
                          host: Optional[Tuple[float, float]] = None,
                          **params) -> nx.Graph:
    """A cached :func:`build_topology`, keyed by every build parameter.

    Extra builder parameters (a :class:`TopologySpec`'s ``params``) are
    part of the key after schema validation/coercion, so two specs that
    build different graphs can never alias one cache entry, and two
    spellings of the same value (``2`` vs ``2.0`` for a float parameter)
    share one.

    With ``host=(bandwidth, latency)`` the returned graph also carries a
    ``host`` node linked to every GPU — the host-transfer augmentation
    built once per key instead of copied per simulation.  The graph is
    shared: treat it as immutable, or copy before mutating.
    """
    params = TOPOLOGIES.validate_params(name, params)
    key = (name, n, float(bandwidth), float(latency),
           None if host is None else (float(host[0]), float(host[1])),
           tuple(sorted(params.items())))
    graph = _TOPOLOGY_CACHE.get(key)
    if graph is not None:
        _TOPOLOGY_CACHE.move_to_end(key)
        return graph
    graph = build_topology(name, n, bandwidth, latency, **params)
    if host is not None:
        add_host_links(graph, n, *host)
    _TOPOLOGY_CACHE[key] = graph
    while len(_TOPOLOGY_CACHE) > TOPOLOGY_CACHE_LIMIT:
        _TOPOLOGY_CACHE.popitem(last=False)
    return graph


def clear_topology_cache() -> int:
    """Drop every cached topology; returns the number evicted."""
    evicted = len(_TOPOLOGY_CACHE)
    _TOPOLOGY_CACHE.clear()
    return evicted


def link_names(graph: nx.Graph) -> List[str]:
    """Sorted ``"u-v"`` names of every link, endpoints in sorted order.

    The vocabulary fault specs address links with (device names never
    contain ``-``, so the encoding is unambiguous); feeds
    :meth:`repro.faults.FaultSpec.sample`'s ``links`` argument and the
    FT002 lint rule.
    """
    return sorted(
        "{}-{}".format(*sorted((u, v))) for u, v in graph.edges
    )


def has_link(graph: nx.Graph, spec: str) -> bool:
    """Whether ``"u-v"`` names an edge of *graph* (either orientation)."""
    u, sep, v = spec.partition("-")
    return bool(sep) and graph.has_edge(u, v)
