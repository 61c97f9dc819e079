"""Pluggable routing strategies for multi-path fabrics.

On a single-path topology (ring, switch) a flow's route is decided:
there is exactly one shortest path and :class:`~repro.network.flow.
FlowNetwork` uses it.  Datacenter fabrics (:func:`~repro.network.
topology.leaf_spine`, :func:`~repro.network.topology.fat_tree_clos`) give
GPU pairs *several* equal-cost shortest paths, and which one each flow
takes — the routing policy — decides how the fabric behaves under
congestion and link failure.  This module is that policy layer:

* :class:`RoutingStrategy` — the interface: given the deterministic
  candidate-path list for a ``(src, dst)`` pair, return the index of the
  path the starting flow should take;
* :class:`EcmpRouting` — deterministic ECMP: a seeded stable hash of the
  ``(src, dst)`` pair picks one path per pair, forever (the classic
  static 5-tuple hash; oblivious to load, collides under skew);
* :class:`FlowletRouting` — flowlet-style rehash-on-idle: a pair keeps
  its hashed path while flows keep arriving, but after an idle gap the
  hash salt bumps and the next flow may land elsewhere (Conga/LetFlow
  lineage, still load-oblivious but escapes persistent collisions);
* :class:`AdaptiveRouting` — congestion-adaptive: at flow start, score
  every candidate path by the utilization of its links — the
  allocator's per-edge flow counts and live link capacities — and take
  the least-utilized one (degraded links are avoided the moment their
  capacity drops).

**The determinism contract.**  Every strategy is a pure function of
``(seed, pair, candidate list, simulation state)``: hashes use CRC-32 of
the pair text (never Python's process-randomized ``hash``), candidate
lists are enumerated in sorted order, and adaptive scoring breaks ties by
candidate index.  Two runs of the same config therefore choose identical
paths in any process, which is what keeps result caching and plan replay
bit-identical.  The strategy *name + seed* is part of the simulation
config (and so of every cache key); per-pair choice caches live on the
:class:`~repro.network.flow.FlowNetwork` instance, which exists for
exactly one run of one strategy.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Tuple, Type

DirectedEdge = Tuple[str, str]
Route = List[DirectedEdge]


def stable_hash(*parts: str, seed: int = 0) -> int:
    """A process-stable non-negative hash of the given text parts.

    CRC-32 over the joined text — unlike builtin ``hash``, unaffected by
    ``PYTHONHASHSEED``, so ECMP choices replay identically across worker
    processes and cache replays.
    """
    text = f"{seed}|" + "|".join(parts)
    return zlib.crc32(text.encode("utf-8")) & 0xFFFFFFFF


class RoutingStrategy:
    """Chooses among the equal-cost candidate paths of a ``(src, dst)``
    pair at flow start.

    Subclasses set :attr:`name` (the registry key and config value),
    :attr:`dynamic` (``False`` lets the network cache the choice per
    pair), and implement :meth:`choose`.  ``network`` is the live
    :class:`~repro.network.flow.FlowNetwork`; the sanctioned allocator
    state to read is :meth:`~repro.network.flow.FlowNetwork.route_loads`
    — per-edge flow counts and live capacities along every candidate, in
    candidate order.
    """

    #: Registry key; also the value carried by ``SimulationConfig.routing``.
    name = "base"
    #: ``True`` re-runs :meth:`choose` for every flow; ``False`` caches
    #: the first choice per (src, dst) pair for the run.
    dynamic = False

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def choose(self, src: str, dst: str, candidates: List[Route],
               network) -> int:
        """Index into *candidates* (each a directed edge list) for the
        flow starting now.  Called only when ``len(candidates) > 1``."""
        raise NotImplementedError

    def cache_token(self) -> Tuple:
        """Identity of this strategy's decisions (name + seed); part of
        route-choice cache keys wherever choices outlive the instance."""
        return (self.name, self.seed)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} seed={self.seed}>"


class ShortestPathRouting(RoutingStrategy):
    """The default single-path policy: always the first (BFS shortest)
    path — behaviourally identical to the pre-multipath network model."""

    name = "shortest"
    dynamic = False

    def choose(self, src: str, dst: str, candidates: List[Route],
               network) -> int:
        return 0


class EcmpRouting(RoutingStrategy):
    """Deterministic ECMP: seeded stable hash over the pair.

    Every flow of a pair takes the same path for the whole run — the
    static per-flow hash real switches apply to the 5-tuple.  Different
    seeds model different switch hash functions; sweeping the seed
    explores hash-collision luck.
    """

    name = "ecmp"
    dynamic = False

    def choose(self, src: str, dst: str, candidates: List[Route],
               network) -> int:
        return stable_hash(src, dst, seed=self.seed) % len(candidates)


class FlowletRouting(RoutingStrategy):
    """Flowlet-style ECMP: rehash a pair's path after an idle gap.

    While flows of a pair keep starting within :attr:`idle_gap` seconds
    of each other they share one hashed path (a *flowlet*); a longer gap
    bumps the pair's salt, so the next burst re-rolls the hash and may
    escape a congested or degraded path.
    """

    name = "flowlet"
    dynamic = True

    #: Default idle gap (seconds of virtual time) after which a pair
    #: re-rolls its path hash; a fraction of a typical collective wave.
    DEFAULT_IDLE_GAP = 2e-4

    def __init__(self, seed: int = 0, idle_gap: Optional[float] = None):
        super().__init__(seed)
        self.idle_gap = float(
            self.DEFAULT_IDLE_GAP if idle_gap is None else idle_gap)
        if self.idle_gap < 0:
            raise ValueError("idle_gap must be non-negative")
        #: (src, dst) -> [salt, last_flow_start_time]
        self._flowlets: Dict[Tuple[str, str], List[float]] = {}

    def choose(self, src: str, dst: str, candidates: List[Route],
               network) -> int:
        now = network.engine.now
        state = self._flowlets.get((src, dst))
        if state is None:
            state = self._flowlets[(src, dst)] = [0, now]
        else:
            if now - state[1] > self.idle_gap:
                state[0] += 1
            state[1] = now
        return stable_hash(src, dst, str(state[0]),
                           seed=self.seed) % len(candidates)


class AdaptiveRouting(RoutingStrategy):
    """Congestion-adaptive routing: least-utilized candidate at flow start.

    Scores each candidate path by its bottleneck *load factor* — for
    every link, ``(flows on it + 1) / capacity``, where the flow count
    (from :meth:`~repro.network.flow.FlowNetwork.route_loads`) sums the
    link's active flows with routed-but-not-yet-active commitments
    (flows inside their send→activate latency window, so a wave issued
    at one instant sees its own earlier members), and the capacity is
    the live one (a link degraded by fault injection repels new flows
    immediately).  The path with the smallest ``(bottleneck, total,
    index)`` triple wins; the index tie-break keeps the choice
    deterministic when paths score equal, and an all-idle fabric
    therefore takes the first candidate.
    """

    name = "adaptive"
    dynamic = True

    def choose(self, src: str, dst: str, candidates: List[Route],
               network) -> int:
        best_index = 0
        best_bottleneck = -1.0
        best_total = -1.0
        for index, edges in enumerate(network.route_loads(src, dst)):
            bottleneck = 0.0
            total = 0.0
            for flows, capacity in edges:
                load = (flows + 1) / capacity
                if load > bottleneck:
                    bottleneck = load
                total += load
            # Strict-improvement replacement in index order preserves
            # the (bottleneck, total, index) lexicographic tie-break
            # without a tuple allocation per candidate.
            if (best_bottleneck < 0.0 or bottleneck < best_bottleneck
                    or (bottleneck == best_bottleneck
                        and total < best_total)):
                best_bottleneck = bottleneck
                best_total = total
                best_index = index
        return best_index


# ----------------------------------------------------------------------
# The strategy registry
# ----------------------------------------------------------------------
_STRATEGIES: Dict[str, Type[RoutingStrategy]] = {}


def register_routing_strategy(cls: Type[RoutingStrategy],
                              override: bool = False
                              ) -> Type[RoutingStrategy]:
    """Register a :class:`RoutingStrategy` subclass under ``cls.name``.

    Usable as a decorator.  Raises ``ValueError`` on duplicates unless
    ``override=True``.
    """
    name = cls.name
    if not name or name == RoutingStrategy.name:
        raise ValueError("strategy classes must set a distinct .name")
    if name in _STRATEGIES and not override:
        raise ValueError(
            f"routing strategy {name!r} is already registered; pass "
            "override=True to replace it"
        )
    _STRATEGIES[name] = cls
    return cls


def routing_names() -> List[str]:
    """Registered strategy names, in registration order."""
    return list(_STRATEGIES)


def get_routing_strategy(name: str, seed: int = 0,
                         **kwargs) -> RoutingStrategy:
    """Instantiate a registered strategy by name.

    Raises ``KeyError`` naming the known strategies for an unknown name —
    the config constructor stays permissive (like topology names) so the
    NW-series lint rules can catch the typo before dispatch.
    """
    if name not in _STRATEGIES:
        raise KeyError(
            f"unknown routing strategy {name!r}; known: {routing_names()}"
        )
    return _STRATEGIES[name](seed=seed, **kwargs)


for _cls in (ShortestPathRouting, EcmpRouting, FlowletRouting,
             AdaptiveRouting):
    register_routing_strategy(_cls)
