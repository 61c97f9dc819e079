"""The four benchmark workloads, and the entry point of one pass.

A *pass* is one fresh interpreter that sets a workload up from its seed
and then runs the workload's simulations back to back (a closed loop).
``bench/run.py`` spawns passes with this file as the program::

    python bench/workloads.py exact_fabric --seed 0 --pass-id 1 \\
        --spawned-at <time.monotonic() before spawn> [--quick] [--profile]
        [--setup-only]

and reads the last line of its standard output, one JSON record:
set-up time, the measured wall time, one entry per simulation (its
label, host seconds and simulated ``total_time``, or the error that
stopped it), the layer counters and phase times the program reports,
peak RSS, and the spans recorded around every call into the program.
With ``--profile`` the record also carries the per-layer table from
:mod:`layers`.  ``--accuracy`` instead reads ``{label: predicted}``
for ``paper_platforms`` on standard input and prints the error of each
prediction against :class:`repro.HardwareOracle`.

Only the public API is used (``Tracer``, ``SimulationConfig``,
``TrioSim(trace, cfg, record_timeline=False, plan_cache=PlanCache())``,
``SweepRunner``, ``TaskGraphSimulator``, ``ring_all_reduce``,
``FlowNetwork``, ``HardwareOracle``), and none of the knobs that
select between internal implementations, so the same benchmark runs on
every commit.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import random
import resource
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

from repro import (
    Engine,
    FlowNetwork,
    HardwareOracle,
    PlanCache,
    SimulationConfig,
    SweepRunner,
    Tracer,
    TrioSim,
    custom_platform,
    get_gpu,
    get_model,
    platform_p1,
    platform_p2,
)
from repro.collectives import ring_all_reduce
from repro.core.taskgraph import TaskGraphSimulator
from repro.faults import FaultSpec, Straggler
from repro.network.topology import build_topology

import layers

WORKLOADS = ("exact_fabric", "fabric_storm", "paper_platforms", "sweep_grid")


class Spans:
    """Spans around the pass's calls into the program, kept in memory.

    Times are ``time.monotonic()`` seconds relative to *origin* (the
    moment the parent spawned the pass), so a pass's spans line up with
    its set-up time.
    """

    def __init__(self, pass_id: int, origin: float):
        self.pass_id = pass_id
        self.origin = origin
        self.records: List[dict] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str):
        record = {"name": name,
                  "start": time.monotonic() - self.origin, "end": None,
                  "parent": self._open[-1] if self._open else None,
                  "pass": self.pass_id}
        self._open.append(len(self.records))
        self.records.append(record)
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.monotonic() - self.origin


class Pass:
    """What one pass measured; serialized as the pass's JSON record."""

    def __init__(self):
        self.sims: List[dict] = []
        self.counters: Dict[str, float] = {}
        self.phases: Dict[str, float] = {}

    def sim(self, label: str, wall: float, total_time: Optional[float],
            error: Optional[str] = None) -> dict:
        entry = {"label": label, "wall": wall, "total_time": total_time,
                 "error": error}
        self.sims.append(entry)
        return entry

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def add_profile(self, profile: dict) -> None:
        """Fold one ``SimulationResult.profile`` into the pass totals."""
        for phase, seconds in profile.get("phases", {}).items():
            self.phases[phase] = self.phases.get(phase, 0.0) + seconds
        counters = profile.get("counters", {})
        self.count("plan.builds", counters.get("extrapolator_builds", 0))
        self.count("plan.instances", counters.get("plan_instances", 0))
        self.count("fold.iterations_folded",
                   counters.get("iterations_folded", 0))
        if profile.get("plan_source") in ("memory", "disk"):
            self.count("plan.cache_hits", 1)

    def add_network(self, summary: dict) -> None:
        """Keep the largest of a run's ``network_summary`` peaks."""
        for name in ("max_peak_flows", "multipath_pairs"):
            key = f"network.{name}"
            self.counters[key] = max(self.counters.get(key, 0),
                                     summary.get(name, 0))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _run_triosim(spans: Spans, record: Pass, label: str, trace,
                 config: SimulationConfig, plan_cache: PlanCache) -> None:
    """One ``TrioSim.run``, timed and folded into *record*."""
    sim = TrioSim(trace, config, record_timeline=False, plan_cache=plan_cache)
    started = time.perf_counter()
    with spans.span("TrioSim.run"):
        result = sim.run()
    record.sim(label, time.perf_counter() - started, result.total_time)
    record.add_profile(result.profile)
    record.add_network(result.network)
    record.count("engine.events", result.events)
    if sim.fault_stats:
        record.count("faults.straggled_tasks",
                     sim.fault_stats.get("straggled_tasks", 0))


# ----------------------------------------------------------------------
# exact_fabric: the pure exact path (faults switch folding off)
# ----------------------------------------------------------------------
def setup_exact_fabric(seed: int, quick: bool, spans: Spans) -> dict:
    rng = _rng("exact_fabric", seed)
    # The straggler window starts inside the run's first ~3/4: ResNet-50
    # trains 2 iterations in ~0.2 simulated s, the quick ResNet-18 in ~0.02.
    model, batch, gpus, runs, horizon = (
        ("resnet18", 32, 16, 2, 0.015) if quick
        else ("resnet50", 128, 64, 3, 0.15))
    with spans.span("Tracer.trace"):
        trace = Tracer(get_gpu("A100")).trace(get_model(model), batch)
    configs = []
    for _ in range(runs):
        straggler = Straggler(gpu=f"gpu{rng.randrange(gpus)}",
                              start=round(rng.uniform(0.0, horizon), 6),
                              duration=horizon / 3, factor=1.5)
        configs.append((f"{straggler.gpu}@{straggler.start}", SimulationConfig(
            parallelism="ddp", num_gpus=gpus, topology="leaf_spine",
            oversubscription=2.0, link_bandwidth=234e9, iterations=2,
            routing="adaptive", faults=FaultSpec(stragglers=(straggler,)))))
    return {"trace": trace, "configs": configs}


def measure_exact_fabric(inputs: dict, spans: Spans, record: Pass) -> None:
    plan_cache = PlanCache()  # shared by the pass's runs: one build
    for label, config in inputs["configs"]:
        _run_triosim(spans, record, label, inputs["trace"], config,
                     plan_cache)


# ----------------------------------------------------------------------
# fabric_storm: allocator and routing contention, no trace or plan
# ----------------------------------------------------------------------
#: Fraction of nominal capacity left on the throttled uplink.
SICK_FACTOR = 0.02
STORM_BANDWIDTH = 100e9


def storm_ring_orders(gpus: int, gpus_per_leaf: int, rings: int) -> List[List[str]]:
    """Ring orders whose every hop leaves its leaf (stride = leaf count).

    Ring *r* shifts every GPU index by *r*, so the rings use different
    GPU pairs and ECMP hashes them onto different uplinks.
    """
    leaves = gpus // gpus_per_leaf
    base = [(i % leaves) * gpus_per_leaf + i // leaves for i in range(gpus)]
    return [[f"gpu{(g + r) % gpus}" for g in base] for r in range(rings)]


def setup_fabric_storm(seed: int, quick: bool, spans: Spans) -> dict:
    rng = _rng("fabric_storm", seed)
    gpus, rings, megabytes = (16, 2, 8) if quick else (64, 6, 64)
    gpus_per_leaf = 8
    topology = build_topology("leaf_spine", gpus, STORM_BANDWIDTH, 1e-6,
                              gpus_per_leaf=gpus_per_leaf,
                              oversubscription=2.0)
    leaves = gpus // gpus_per_leaf
    spines = sum(1 for node in topology if str(node).startswith("spine"))
    return {
        "topology": topology,
        "sick": (f"leaf{rng.randrange(leaves)}",
                 f"spine{rng.randrange(spines)}"),
        "routing_seed": rng.randrange(1 << 16),
        "orders": storm_ring_orders(gpus, gpus_per_leaf, rings),
        "nbytes": megabytes * 2 ** 20,
    }


def measure_fabric_storm(inputs: dict, spans: Spans, record: Pass) -> None:
    totals = {}
    for routing in ("ecmp", "adaptive"):
        started = time.perf_counter()
        engine = Engine()
        topology = inputs["topology"].copy()  # set_link_capacity mutates
        network = FlowNetwork(engine, topology, routing=routing,
                              routing_seed=inputs["routing_seed"])
        u, v = inputs["sick"]
        network.set_link_capacity(u, v, topology[u][v]["bandwidth"]
                                  * SICK_FACTOR)
        sim = TaskGraphSimulator(engine, network)
        for ring, order in enumerate(inputs["orders"]):
            ring_all_reduce(sim, order, inputs["nbytes"], tag=f"ring{ring}")
        run_started = time.perf_counter()
        with spans.span("TaskGraphSimulator.run"):
            total = sim.run()
        now = time.perf_counter()
        totals[routing] = record.sim(routing, now - started, total)
        record.phases["engine"] = (record.phases.get("engine", 0.0)
                                   + now - run_started)
        record.count("engine.events", engine.dispatched_events)
        record.count("engine.cancellations", engine.total_cancelled)
        record.count("engine.compactions", engine.compactions)
        record.count("network.reallocations", network.reallocations)
        record.count("network.reschedules", network.reschedules)
        record.count("network.fastpath_hits", network.fastpath_hits)
        record.add_network(network.network_summary(total_time=total))
    # The routing contract: adaptive steers around the throttled uplink
    # that ECMP keeps hashing flows onto.
    adaptive = totals["adaptive"]
    if not adaptive["total_time"] < totals["ecmp"]["total_time"]:
        adaptive["error"] = (
            f"adaptive {adaptive['total_time']!r} s is not below ecmp "
            f"{totals['ecmp']['total_time']!r} s")


# ----------------------------------------------------------------------
# paper_platforms: the quick set of paper Figs. 6-10, cold plan per point
# ----------------------------------------------------------------------
#: The model lists of ``repro.experiments.fig06``-``fig10`` at
#: ``quick=True``, written out so the workload stays fixed when the
#: figure modules change.
PAPER_QUICK_MODELS = ("resnet50", "densenet121", "vgg16", "gpt2")
PAPER_PIPELINE_MODELS = ("resnet50", "densenet169", "gpt2")
ORACLE_RUNS = 10


def paper_points(quick: bool) -> List[dict]:
    """Every (label, trace, config, oracle measurement) of the quick set."""
    models = PAPER_QUICK_MODELS[:1] if quick else PAPER_QUICK_MODELS
    pipeline = PAPER_PIPELINE_MODELS[:1] if quick else PAPER_PIPELINE_MODELS
    points = []

    def add(label, model, gpu, batch, config, platform, method, *args,
            **kwargs):
        points.append({"label": label, "trace": (model, gpu, batch),
                       "config": config, "oracle": (platform, method,
                                                    args, kwargs)})

    for gpu in ("A40", "A100"):  # fig06: batch 256 from a batch-128 trace
        platform = custom_platform(gpu, 1, name=f"single-{gpu}")
        for model in models[:3]:
            add(f"fig06/{model}/{gpu}", model, gpu, 128,
                SimulationConfig(parallelism="single", batch_size=256),
                platform, "measure_single_gpu", 256)
    p1 = platform_p1()
    for model in models:  # fig07: threaded DataParallel on P1
        add(f"fig07/{model}", model, p1.gpu.name, 128,
            SimulationConfig.for_platform(p1, parallelism="dp"),
            p1, "measure_data_parallel", 128)
    for figure, parallelism, method in (
            ("fig08", "ddp", "measure_ddp"),
            ("fig09", "tp", "measure_tensor_parallel")):
        for platform in (platform_p1(), platform_p2()):
            for model in models:
                add(f"{figure}/{model}/{platform.name}", model,
                    platform.gpu.name, 128,
                    SimulationConfig.for_platform(
                        platform, parallelism=parallelism),
                    platform, method, 128)
    for stages in (2, 4):  # fig10: GPipe with 1, 2 and 4 chunks
        platform = platform_p2(stages)
        for model in pipeline:
            for chunks in (1, 2, 4):
                add(f"fig10/{model}/{stages}gpu/c{chunks}", model,
                    platform.gpu.name, 128,
                    SimulationConfig.for_platform(
                        platform, num_gpus=stages, parallelism="pp",
                        chunks=chunks),
                    platform, "measure_pipeline", 128, chunks,
                    num_stages=stages)
    return points


def setup_paper_platforms(seed: int, quick: bool, spans: Spans) -> dict:
    points = paper_points(quick)
    _rng("paper_platforms", seed).shuffle(points)
    traces = {}
    for point in points:
        key = point["trace"]
        if key not in traces:
            model, gpu, batch = key
            with spans.span("Tracer.trace"):
                traces[key] = Tracer(get_gpu(gpu)).trace(get_model(model),
                                                         batch)
    return {"points": points, "traces": traces}


def measure_paper_platforms(inputs: dict, spans: Spans,
                            record: Pass) -> None:
    for point in inputs["points"]:
        # A cold cache per point: every point pays for its own plan.
        _run_triosim(spans, record, point["label"],
                     inputs["traces"][point["trace"]], point["config"],
                     PlanCache())


def paper_accuracy(predicted: Dict[str, float], quick: bool) -> Dict[str, float]:
    """Signed relative error of each prediction against the oracle."""
    errors = {}
    for point in paper_points(quick):
        platform, method, args, kwargs = point["oracle"]
        model = get_model(point["trace"][0])
        measured = getattr(HardwareOracle(platform), method)(
            model, *args, runs=ORACLE_RUNS, **kwargs).total
        label = point["label"]
        errors[label] = (predicted[label] - measured) / measured
    return errors


# ----------------------------------------------------------------------
# sweep_grid: the user-facing sweep path (transport, lint, folding)
# ----------------------------------------------------------------------
SWEEP_WORKERS = 2
#: Largest relative change the seed makes to a point's link bandwidth.
SWEEP_JITTER = 0.05


def sweep_points(quick: bool, rng: random.Random) -> List[tuple]:
    """The grid, largest points first, bandwidths jittered by the seed.

    The order is fixed so the two workers' load balance (and so the
    sweep's wall time and peak RSS) does not depend on the seed; the
    seed moves every point's bandwidth by up to ``SWEEP_JITTER``, which
    changes the simulated times but hardly the work.
    """
    gpu_counts = (16, 8) if quick else (64, 32, 16, 8)
    bandwidths = (25e9,) if quick else (25e9, 100e9)
    points = []
    for gpus in gpu_counts:
        for topology, routing in (("ring", "shortest"),
                                  ("leaf_spine", "ecmp")):
            for bandwidth in bandwidths:
                for scheme in ("ring", "tree"):
                    label = (f"n{gpus}/{topology}/{bandwidth / 1e9:g}G/"
                             f"{scheme}")
                    jitter = 1.0 + rng.uniform(-SWEEP_JITTER, SWEEP_JITTER)
                    points.append((label, SimulationConfig(
                        parallelism="ddp", num_gpus=gpus, topology=topology,
                        routing=routing, link_bandwidth=bandwidth * jitter,
                        collective_scheme=scheme, iterations=8)))
    return points


def setup_sweep_grid(seed: int, quick: bool, spans: Spans) -> dict:
    points = sweep_points(quick, _rng("sweep_grid", seed))
    with spans.span("Tracer.trace"):
        trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"), 32)
    return {"trace": trace, "points": points}


def record_sweep(outcomes, metrics, sweep_wall: float, workers: int,
                 record: Pass) -> None:
    """Fold sweep outcomes and ``SweepMetrics`` into *record*.

    A point that did not come back ``ok`` is recorded with its error, so
    it counts as a failed simulation.
    """
    busy = 0.0
    for outcome in outcomes:
        if outcome.ok:
            result = outcome.result
            busy += result.wall_time
            record.sim(outcome.label, result.wall_time, result.total_time)
            record.add_profile(result.profile)
            record.add_network(result.network)
            record.count("engine.events", result.events)
        else:
            error = outcome.error
            record.sim(outcome.label, 0.0, None,
                       f"{error.kind}: {error.message}" if error
                       else "point produced no result")
    record.count("service.worker_busy_s", busy)
    record.count("service.dispatch_share",
                 1.0 - busy / (workers * sweep_wall) if sweep_wall else 0.0)
    record.count("service.retries", metrics.retries)
    record.count("service.worker_crashes", metrics.worker_crashes)
    # The runner's own plan counters cover every worker.
    record.counters["plan.builds"] = metrics.plan_builds
    record.counters["plan.cache_hits"] = metrics.plan_cache_hits


def measure_sweep_grid(inputs: dict, spans: Spans, record: Pass,
                       profiler=None) -> None:
    labels = [label for label, _ in inputs["points"]]
    configs = [config for _, config in inputs["points"]]
    runner = SweepRunner(max_workers=SWEEP_WORKERS, cache=None)
    # The pool forks inside run(); a live profiler would be inherited by
    # the workers and slow every point down, so it pauses here.
    if profiler is not None:
        profiler.disable()
    started = time.perf_counter()
    with spans.span("SweepRunner.run"):
        outcomes = runner.run(inputs["trace"], configs, labels=labels)
    wall = time.perf_counter() - started
    if profiler is not None:
        profiler.enable()
    record_sweep(outcomes, runner.last_metrics, wall, SWEEP_WORKERS, record)


SETUP: Dict[str, Callable] = {
    "exact_fabric": setup_exact_fabric,
    "fabric_storm": setup_fabric_storm,
    "paper_platforms": setup_paper_platforms,
    "sweep_grid": setup_sweep_grid,
}
MEASURE: Dict[str, Callable] = {
    "exact_fabric": measure_exact_fabric,
    "fabric_storm": measure_fabric_storm,
    "paper_platforms": measure_paper_platforms,
    "sweep_grid": measure_sweep_grid,
}


def run_pass(workload: str, seed: int, quick: bool, pass_id: int,
             spawned_at: float, profile: bool = False,
             setup_only: bool = False) -> dict:
    """Set *workload* up, run its simulations once, return the record."""
    spans = Spans(pass_id, spawned_at)
    profiler = None
    if profile:
        profiler = cProfile.Profile()
        profiler.enable()
    profile_started = time.perf_counter()
    with spans.span("setup"):
        inputs = SETUP[workload](seed, quick, spans)
    setup_s = time.monotonic() - spawned_at
    record = Pass()
    wall = 0.0
    if not setup_only:
        started = time.perf_counter()
        with spans.span("measure"):
            kwargs = {"profiler": profiler} if workload == "sweep_grid" else {}
            MEASURE[workload](inputs, spans, record, **kwargs)
        wall = time.perf_counter() - started
    out = {
        "workload": workload, "pass": pass_id, "seed": seed,
        "quick": quick, "setup_s": setup_s, "wall_s": wall,
        "sims": record.sims, "counters": record.counters,
        "phases": record.phases, "spans": spans.records,
    }
    if profiler is not None:
        profiler.disable()
        out["profiled_wall_s"] = time.perf_counter() - profile_started
        out["layers"] = layers.layer_table(profiler)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["rss_mb"] = usage / 1024.0  # Linux reports kilobytes
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pass-id", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--profile", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--accuracy", action="store_true")
    args = parser.parse_args(argv)
    if args.accuracy:
        predicted = json.loads(sys.stdin.read())
        print(json.dumps(paper_accuracy(predicted, args.quick)))
        return 0
    spawned_at = (args.spawned_at if args.spawned_at is not None
                  else time.monotonic())
    out = run_pass(args.workload, args.seed, args.quick, args.pass_id,
                   spawned_at, profile=args.profile,
                   setup_only=args.setup_only)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
