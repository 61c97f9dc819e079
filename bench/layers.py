"""Per-layer self time and call counts from one cProfile'd pass.

A *layer* is a part of the ``repro`` package, named after its module:

=============  ==================================================
layer          modules
=============  ==================================================
trace          ``trace/``, plus ``workloads/`` and ``oracle/``,
               which the tracer walks and "measures" on
perfmodel      ``perfmodel/``
extrapolator   ``extrapolator/``
plan           ``core/plan.py``
taskgraph      ``core/taskgraph.py``
engine         ``engine/``
network        ``network/`` except routing (flow, topology)
routing        ``network/routing.py``
faults         ``faults/``
fold           ``core/fold.py``
collectives    ``collectives/``
service        ``service/``
analysis       ``analysis/``
other          everything else: the rest of ``core/``, the
               harness, and time no layer above called
=============  ==================================================

Self time of code outside ``repro`` (builtins such as ``min`` or
``heapq.heappush``, numpy, networkx) is charged to the layer that
called it, split by the time each caller spent in it, so a layer's
``self_s`` includes the library work it asked for.  The self times of
all layers add up to the profiled wall time.  ``calls`` counts calls of
the layer's own functions only; those counts repeat exactly from run to
run.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Dict, Tuple

LAYERS = ("trace", "perfmodel", "extrapolator", "plan", "taskgraph",
          "engine", "network", "routing", "faults", "fold", "collectives",
          "service", "analysis", "other")

_PACKAGE_LAYER = {
    "trace": "trace", "workloads": "trace", "oracle": "trace",
    "perfmodel": "perfmodel", "extrapolator": "extrapolator",
    "engine": "engine", "network": "network", "faults": "faults",
    "collectives": "collectives", "service": "service",
    "analysis": "analysis",
}
_FILE_LAYER = {
    "core/plan.py": "plan", "core/taskgraph.py": "taskgraph",
    "core/fold.py": "fold", "network/routing.py": "routing",
}

Func = Tuple[str, int, str]


def layer_of(filename: str) -> str:
    """The layer of a source file, or ``""`` for code outside ``repro``."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    at = path.rfind(marker)
    if at < 0:
        return ""
    inner = path[at + len(marker):]
    if inner in _FILE_LAYER:
        return _FILE_LAYER[inner]
    package = inner.split("/", 1)[0]
    return _PACKAGE_LAYER.get(package, "other")


def _shares(stats: dict, func: Func, memo: dict, active: set) -> Dict[str, float]:
    """How *func*'s self time splits over layers (fractions summing to 1)."""
    if func in memo:
        return memo[func]
    layer = layer_of(func[0])
    callers = stats[func][4]
    if layer or not callers or func in active:
        return {layer or "other": 1.0}
    active.add(func)
    weights: Dict[str, float] = {}
    total = 0.0
    for caller, (_cc, _nc, tt, _ct) in callers.items():
        if caller not in stats:
            continue
        for name, share in _shares(stats, caller, memo, active).items():
            weights[name] = weights.get(name, 0.0) + share * tt
        total += tt
    active.discard(func)
    if total <= 0.0:
        result = {"other": 1.0}
    else:
        result = {name: weight / total for name, weight in weights.items()}
    memo[func] = result
    return result


def layer_table(profiler: cProfile.Profile) -> Dict[str, dict]:
    """``{layer: {"self_s": seconds, "calls": count}}`` for every layer."""
    stats = pstats.Stats(profiler).stats
    table = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    memo: dict = {}
    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        own = layer_of(func[0])
        if own:
            table[own]["calls"] += nc
        for name, share in _shares(stats, func, memo, set()).items():
            table[name]["self_s"] += share * tt
    return table
