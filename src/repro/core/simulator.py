"""The TrioSim facade.

Wires together the pieces the paper's Figure 2 shows: the input trace, the
multi-GPU trace extrapolator, the linear-regression performance model, and
the lightweight network model, all running on the event-driven engine.

Typical use::

    from repro import TrioSim, SimulationConfig, Tracer, get_model, get_gpu

    tracer = Tracer(get_gpu("A100"))
    trace = tracer.trace(get_model("resnet50"), batch_size=128)
    config = SimulationConfig(parallelism="ddp", num_gpus=4,
                              topology="ring", link_bandwidth=234e9)
    result = TrioSim(trace, config).run()
    print(result.summary())
"""

from __future__ import annotations

import time as _wall
from collections import defaultdict

import networkx as nx

from repro.core.config import SimulationConfig
from repro.core.fold import fold_decision, steady
from repro.core.plan import ExtrapolationPlan, PlanBuilder, PlanCache, plan_key
from repro.core.profiler import PipelineProfiler
from repro.core.results import SimulationResult
from repro.core.taskgraph import TaskGraphSimulator, TaskTotals
from repro.core.timeline import shift_records
from repro.engine.engine import Engine
from repro.extrapolator.base import Extrapolator
from repro.extrapolator.hybrid import HybridExtrapolator
from repro.extrapolator.data_parallel import (
    DataParallelExtrapolator,
    DistributedDataParallelExtrapolator,
)
from repro.extrapolator.optime import prepare
from repro.extrapolator.pipeline import PipelineExtrapolator
from repro.extrapolator.single import SingleGPUExtrapolator
from repro.extrapolator.tensor_parallel import TensorParallelExtrapolator
from repro.network.flow import FlowNetwork
from repro.network.topology import (
    TOPOLOGIES,
    TopologySpec,
    add_host_links,
    build_topology_cached,
)
from repro.trace.trace import Trace

#: Engine events between heartbeat calls.  Small enough that the sweep
#: service's soft deadline catches a stuck-but-dispatching run within
#: milliseconds, large enough that the wall-clock read stays invisible
#: in profiles.
HEARTBEAT_EVERY = 256


def heartbeat_observer(engine: Engine, heartbeat, every: int = HEARTBEAT_EVERY):
    """The dispatch observer behind ``TrioSim(heartbeat=)``.

    Calls ``heartbeat(engine)`` every *every* dispatched events, before
    that event's callback runs.  An exception the heartbeat raises
    propagates out of :meth:`Engine.run`, stopping the run with its
    partial progress (``engine.now``, ``engine.dispatched_events``)
    intact — the sweep service's soft deadline.
    """
    if every < 1:
        raise ValueError("heartbeat interval must be >= 1 event")
    countdown = every

    def observe(_time: float, _seq: int, _event) -> None:
        nonlocal countdown
        countdown -= 1
        if not countdown:
            countdown = every
            heartbeat(engine)

    return observe


def iteration_times_from_fences(fence_end_times, total: float):
    """Per-iteration durations from fence boundaries, clamped to *total*.

    A faulted run's stall can leave the last fence's recorded end time
    past the simulation's finish time; clamping keeps every boundary
    inside ``[0, total]`` so iteration durations never go negative and
    always sum to *total*.
    """
    boundaries = [0.0]
    boundaries.extend(min(t, total) for t in fence_end_times)
    boundaries.append(total)
    return [boundaries[i + 1] - boundaries[i]
            for i in range(len(boundaries) - 1)]


class TrioSim:
    """Trace-driven multi-GPU DNN training simulator.

    Parameters
    ----------
    trace:
        A single-GPU operator trace (see :class:`~repro.trace.Tracer`).
    config:
        What to simulate (see :class:`~repro.core.config.SimulationConfig`).
    record_timeline:
        Fill the result's ``timeline`` and the ``per_layer`` /
        ``per_phase`` breakdowns computed from it (empty with ``False``).
        They are read from the task table after the run, so the option
        changes neither the schedule nor fold eligibility.
    hooks:
        Extra observers attached to the task-graph simulator: any object
        with a ``func(ctx)`` method, called with a
        :class:`repro.engine.HookCtx` at each hook position it fires.
    allow_chaos:
        Permit a ``chaos_kill_at`` in ``config.faults`` to arm (the
        process then SIGKILLs itself mid-run).  Only the sweep service's
        sacrificial worker processes pass ``True``; everywhere else such
        a spec raises :class:`repro.faults.ChaosError`.
    plan:
        Optional pre-built :class:`~repro.core.plan.ExtrapolationPlan` to
        execute instead of running the extrapolator.  Its key must match
        this (trace, config) pair — checked by lint rule PL001, raising
        :class:`repro.analysis.AnalysisError` on mismatch.
    plan_cache:
        Optional :class:`~repro.core.plan.PlanCache`.  :meth:`run` looks
        the plan up by :meth:`plan_key` and builds (and caches) it only
        on a miss, so runs differing only in network/topology/fault
        parameters extrapolate once.
    verify:
        Run the two-tier verifier around the simulation.  The static
        tier (``DV`` rules — malformed tasks and transfer endpoints
        outside the topology, cycles, dead tasks, mismatched
        collectives, memory-infeasible schedules) checks the fully
        instantiated graph before any event is scheduled, raising
        :class:`repro.analysis.AnalysisError` on errors.  The runtime
        tier attaches the sanitizers (``SZ`` rules) and the determinism
        race detectors (``RC`` rules) during the run.  Findings land in
        :attr:`verify_report`; the dispatch-order digest in
        :attr:`verify_digest`.  Pass the string ``"runtime"`` to skip
        the static tier (when the caller verified the plan already).
    heartbeat:
        Optional ``(engine) -> None`` callback fired every
        :data:`HEARTBEAT_EVERY` dispatched events (a dispatch observer,
        see :func:`heartbeat_observer`) — the sweep service's
        cooperative soft-deadline check.  Unlike hooks, a heartbeat
        never affects fold eligibility: it observes wall clock, not
        simulation state.
    """

    def __init__(self, trace: Trace, config: SimulationConfig,
                 record_timeline: bool = True, hooks=(),
                 allow_chaos: bool = False,
                 plan: ExtrapolationPlan = None,
                 plan_cache: PlanCache = None, verify: bool = False,
                 heartbeat=None):
        self.config = config
        self.record_timeline = record_timeline
        self.hooks = tuple(hooks)
        self.heartbeat = heartbeat
        self.allow_chaos = allow_chaos
        self.plan = plan
        self.plan_cache = plan_cache
        self.verify = verify
        #: Verifier findings of the last :meth:`run` (a
        #: :class:`repro.analysis.Report`) — static (``DV``) warnings
        #: plus runtime sanitizer (``SZ``) and race (``RC``) findings —
        #: or ``None`` when off.
        self.verify_report = None
        #: Stable fold of the run's dispatched ``(time, seq)`` schedule;
        #: equal digests certify two runs dispatched identically.
        self.verify_digest = None
        #: Injection counters of the last :meth:`run` (see
        #: :meth:`repro.faults.FaultInjector.stats`), or ``None`` when the
        #: config carries no (non-empty) fault spec.
        self.fault_stats = None
        _prep_started = _wall.perf_counter()
        # Cross-GPU rescaling and the performance-model fit are memoized
        # per process: every run over the same trace shares them.
        self.trace, self.op_time = prepare(trace, config.gpu,
                                           config.perf_model)
        self._trace_prep_wall = _wall.perf_counter() - _prep_started

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------
    def _batch_scale(self) -> float:
        if self.config.batch_size is None:
            return 1.0
        return self.config.batch_size / self.trace.batch_size

    def _build_network(self, engine: Engine):
        if self.config.network_factory is not None:
            return self.config.network_factory(engine, self.config)
        cfg = self.config
        # "shortest" maps to no strategy object at all — the exact legacy
        # routing codepath, so default configs stay bit-identical.
        routing = cfg.routing if cfg.routing != "shortest" else None
        topology = cfg.topology
        if not isinstance(topology, nx.Graph):
            if isinstance(topology, TopologySpec):
                name, params = topology.name, dict(topology.params)
            else:
                name, params = topology, {}
            # Routing strategies engage only on topologies registered as
            # multipath (leaf_spine, fat_tree_clos, ...).  Single-path
            # topologies model deterministic dimension-order-style routes
            # — even where a mesh has several equal-cost lattice paths —
            # so every strategy stays bit-identical to ``shortest`` there.
            # Prebuilt graphs (below) are the explicit opt-in escape hatch.
            if routing is not None and name in TOPOLOGIES \
                    and not TOPOLOGIES.get(name).multipath:
                routing = None
            if cfg.oversubscription is not None:
                if not TOPOLOGIES.supports_param(name, "oversubscription"):
                    raise ValueError(
                        f"topology {name!r} does not take an "
                        "oversubscription parameter (only fabrics with "
                        "uplink tiers do, e.g. leaf_spine)"
                    )
                params["oversubscription"] = cfg.oversubscription
            # Named topologies come from the process-level cache — built
            # (and host-augmented) once per parameter key, shared across
            # sweep points.  Fault injection mutates link attributes
            # (``set_link_capacity``), so faulted runs get a copy.
            host = ((cfg.host_bandwidth, cfg.host_latency)
                    if cfg.include_host_transfers else None)
            topology = build_topology_cached(
                name, cfg.num_gpus,
                cfg.link_bandwidth, cfg.link_latency, host=host, **params,
            )
            if cfg.faults is not None and not cfg.faults.is_empty:
                topology = topology.copy()
            return FlowNetwork(engine, topology, routing=routing,
                               routing_seed=cfg.routing_seed)
        if cfg.include_host_transfers:
            topology = topology.copy()
            add_host_links(topology, cfg.num_gpus, cfg.host_bandwidth,
                           cfg.host_latency)
        return FlowNetwork(engine, topology, routing=routing,
                           routing_seed=cfg.routing_seed)

    def _build_extrapolator(self) -> Extrapolator:
        cfg = self.config
        scale = self._batch_scale()
        if cfg.parallelism == "single":
            return SingleGPUExtrapolator(self.trace, self.op_time, batch_scale=scale)
        if cfg.parallelism == "dp":
            return DataParallelExtrapolator(
                self.trace, self.op_time, cfg.num_gpus, batch_scale=scale
            )
        if cfg.parallelism == "ddp":
            groups = None
            if cfg.collective_scheme == "hierarchical":
                from repro.network.topology import node_groups

                groups = node_groups(
                    cfg.num_gpus // cfg.gpus_per_node, cfg.gpus_per_node
                )
            return DistributedDataParallelExtrapolator(
                self.trace, self.op_time, cfg.num_gpus, batch_scale=scale,
                bucket_bytes=cfg.bucket_bytes, overlap=cfg.overlap,
                collective_scheme=cfg.collective_scheme, node_groups=groups,
            )
        if cfg.parallelism == "tp":
            return TensorParallelExtrapolator(
                self.trace, self.op_time, cfg.num_gpus, batch_scale=scale,
                scheme=cfg.tp_scheme,
            )
        if cfg.parallelism == "pp":
            return PipelineExtrapolator(
                self.trace, self.op_time, cfg.num_gpus,
                chunks=cfg.chunks, batch_scale=scale,
                schedule=cfg.pp_schedule,
            )
        if cfg.parallelism == "fsdp":
            from repro.extrapolator.fsdp import FSDPExtrapolator

            return FSDPExtrapolator(
                self.trace, self.op_time, cfg.num_gpus, batch_scale=scale,
                unit_bytes=cfg.bucket_bytes,
            )
        if cfg.parallelism == "hybrid":
            return HybridExtrapolator(
                self.trace, self.op_time, cfg.dp_degree,
                cfg.num_gpus // cfg.dp_degree,
                chunks=cfg.chunks, batch_scale=scale,
            )
        raise ValueError(f"unknown parallelism {cfg.parallelism!r}")

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan_key(self) -> str:
        """Content key of this run's extrapolation plan (see
        :func:`repro.core.plan.plan_key`): prepared-trace digest plus the
        iteration-invariant parallelism knobs, excluding every network /
        topology / fault / iteration parameter."""
        return plan_key(self.trace, self.config)

    def build_plan(self) -> ExtrapolationPlan:
        """Run the extrapolator once, recording into a reusable plan."""
        builder = PlanBuilder()
        extrapolator = self._build_extrapolator()
        extrapolator.fetch_inputs = self.config.include_host_transfers
        extrapolator.build(builder)
        return builder.finish(self.plan_key())

    def _resolve_plan(self, profiler: PipelineProfiler) -> ExtrapolationPlan:
        if self.plan is not None:
            from repro.analysis import AnalysisError, lint_plan

            report = lint_plan(self.plan, self.config, self.trace)
            if report.has_errors:
                raise AnalysisError(
                    report, "supplied plan does not match this config")
            profiler.plan_source = "supplied"
            return self.plan
        if self.plan_cache is not None:
            plan, source = self.plan_cache.get_or_build(
                self.plan_key(), self.build_plan)
            profiler.plan_source = source
            if source == "built":
                profiler.count("extrapolator_builds")
            return plan
        profiler.plan_source = "built"
        profiler.count("extrapolator_builds")
        return self.build_plan()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Simulate the configured training iterations and return the result.

        Multi-iteration runs that qualify (see
        :func:`repro.core.fold.fold_decision` and ``docs/performance.md``)
        take the steady-state folding path: ``fold_warmup`` iterations
        are simulated event-by-event and the rest are extended
        algebraically.  Everything else — single iterations, faulted or
        observed runs, ``fold=False`` — takes the exact event-by-event
        path, bit-identically to builds that predate folding.
        """
        started = _wall.perf_counter()
        profiler = PipelineProfiler()
        profiler.add_phase("trace_prep", self._trace_prep_wall)
        with profiler.phase("plan"):
            plan = self._resolve_plan(profiler)
        with profiler.phase("engine"):
            engine = Engine()
            network = self._build_network(engine)
            sim = TaskGraphSimulator(engine, network)
        if self.config.gpu_slowdowns:
            sim.compute_scale.update(self.config.gpu_slowdowns)
        for hook in self.hooks:
            sim.accept_hook(hook)
        decision = fold_decision(self.config, network=network,
                                 hooks=self.hooks, verify=bool(self.verify))
        beat = None
        if self.heartbeat is not None:
            beat = heartbeat_observer(engine, self.heartbeat)
            engine.add_observer(beat)
        try:
            if decision.eligible:
                return self._run_folded(profiler, plan, engine, network,
                                        sim, started)
            if self.config.iterations > 1:
                profiler.fold_status = decision.status
            return self._run_exact(profiler, plan, engine, network, sim,
                                   started)
        finally:
            # The observer closes over the engine: drop it so the
            # finished run is freed by reference counting.
            if beat is not None:
                engine.remove_observer(beat)

    def _run_exact(self, profiler: PipelineProfiler, plan: ExtrapolationPlan,
                   engine: Engine, network, sim: TaskGraphSimulator,
                   started: float) -> SimulationResult:
        """The exact event-by-event path (every iteration fully simulated)."""
        with profiler.phase("instancing"):
            plan.instantiate_iterations(sim, self.config.iterations)
        profiler.count("plan_instances", self.config.iterations)
        profiler.count("plan_tasks", len(plan))
        injector = None
        faults = self.config.faults
        if faults is not None and not faults.is_empty:
            from repro.faults import FaultInjector

            injector = FaultInjector(engine, sim, network, faults,
                                     allow_chaos=self.allow_chaos).install()
        suite = None
        if self.verify:
            from repro.analysis import AnalysisError, Report
            from repro.analysis.verifier import RuntimeSuite, verify_taskgraph

            if self.verify == "runtime":
                # The caller (e.g. the sweep runner, which verifies each
                # distinct plan once pre-dispatch) ran the static tier.
                self.verify_report = Report()
            else:
                with profiler.phase("verify"):
                    pre = verify_taskgraph(
                        sim, topology=getattr(network, "topology", None),
                        config=self.config)
                if pre.has_errors:
                    raise AnalysisError(pre, "task graph failed verification")
                self.verify_report = pre
            suite = RuntimeSuite().attach(engine=engine, network=network,
                                          injector=injector, sim=sim)
        try:
            with profiler.phase("engine"):
                total = sim.run()
        finally:
            if injector is not None:
                injector.release()
        if injector is not None:
            self.fault_stats = injector.stats()
        if suite is not None:
            self.verify_report.merge(suite.finalize())
            self.verify_digest = suite.order_digest
        iteration_times = []
        if self.config.iterations > 1:
            iteration_times = iteration_times_from_fences(
                [f.end_time for f in sim.fences], total)
        return self._assemble(profiler, engine, network,
                              sim.totals(timeline=self.record_timeline),
                              started, total, iteration_times)

    # ------------------------------------------------------------------
    # Steady-state iteration folding
    # ------------------------------------------------------------------
    def _run_folded(self, profiler: PipelineProfiler,
                    plan: ExtrapolationPlan, engine: Engine, network,
                    sim: TaskGraphSimulator,
                    started: float) -> SimulationResult:
        """Warm up event-by-event, then extend the tail algebraically.

        Each warm-up iteration is instanced and drained in its own
        :meth:`TaskGraphSimulator.run` call — timing-identical to
        upfront instancing, because the inter-iteration fence already
        forces a full drain between iterations.  If the last two warm-up
        durations agree within ``fold_tolerance`` the remaining
        iterations are *folded*: boundaries extend by repeated addition
        of the steady-state period (so iteration times telescope to the
        total exactly), additive counters extend by the last warm-up
        iteration's delta, and the timeline replicates the last warm-up
        iteration's finish-log slice shifted by whole periods.
        Otherwise the remaining iterations are simulated exactly
        (``fold_status: not-steady``).
        """
        cfg = self.config
        warmup = cfg.fold_warmup
        boundaries = []   # end time of each simulated iteration
        durations = []
        before = mark = None
        for index in range(warmup):
            with profiler.phase("instancing"):
                plan.instantiate_iterations(sim, 1, start=index)
            if index == warmup - 1:
                before = network.stats_snapshot()
                mark = len(sim.store.finished)
            with profiler.phase("engine"):
                end = sim.run()
            durations.append(end - (boundaries[-1] if boundaries else 0.0))
            boundaries.append(end)
        profiler.count("plan_instances", warmup)
        profiler.count("plan_tasks", len(plan))
        with profiler.phase("fold_detect"):
            # fold_warmup=1 has a single duration and nothing to compare:
            # the steadiness check is skipped by construction (documented
            # as the maximum-speed escape hatch in docs/performance.md).
            settled = warmup < 2 or steady(durations[-2], durations[-1],
                                           cfg.fold_tolerance)
        folded = cfg.iterations - warmup
        if not settled:
            profiler.fold_status = "not-steady"
            with profiler.phase("instancing"):
                plan.instantiate_iterations(sim, folded, start=warmup)
            profiler.count("plan_instances", folded)
            with profiler.phase("engine"):
                total = sim.run()
            iteration_times = iteration_times_from_fences(
                [f.end_time for f in sim.fences], total)
            return self._assemble(profiler, engine, network,
                                  sim.totals(timeline=self.record_timeline),
                                  started, total, iteration_times)
        profiler.fold_status = "folded"
        profiler.count("iterations_folded", folded)
        after = network.stats_snapshot()
        with profiler.phase("fold_extend"):
            period = durations[-1]
            base = boundaries[-1]
            for _ in range(folded):
                base = base + period  # repeated addition: times telescope
                boundaries.append(base)
            total = boundaries[-1]
            iteration_times = [boundaries[0]]
            iteration_times.extend(boundaries[i + 1] - boundaries[i]
                                   for i in range(len(boundaries) - 1))
            network.extend_stats(before, after, folded)
            totals = self._fold_totals(sim, mark, boundaries, warmup, folded)
        return self._assemble(profiler, engine, network, totals, started,
                              total, iteration_times)

    def _fold_totals(self, sim: TaskGraphSimulator, mark: int, boundaries,
                     warmup: int, folded: int) -> TaskTotals:
        """Task totals read at finish-log position *mark* (the last
        warm-up iteration's start) and at the end, extended by *folded*
        times their difference; that iteration's records replicated."""
        record = self.record_timeline
        head = sim.totals(stop=mark, timeline=record)
        last = sim.totals(since=head, timeline=record)
        busy = {gpu: seconds + folded * (seconds - head.busy[gpu])
                for gpu, seconds in last.busy.items()}
        comm = last.comm + folded * (last.comm - head.comm)
        timeline = head.timeline + last.timeline
        last_end = boundaries[warmup - 1]
        for index in range(folded if record else 0):
            offset = boundaries[warmup + index] - last_end
            timeline.extend(shift_records(last.timeline, offset))
        return TaskTotals(busy, comm, timeline, last.position)

    def _assemble(self, profiler: PipelineProfiler, engine: Engine, network,
                  totals: TaskTotals, started: float, total: float,
                  iteration_times) -> SimulationResult:
        wall = _wall.perf_counter() - started
        per_layer = defaultdict(float)
        per_phase = defaultdict(float)
        busy = totals.busy
        for record in totals.timeline:
            if record.kind != "compute":
                continue
            if record.layer:
                per_layer[record.layer] += record.duration
            if record.phase:
                per_phase[record.phase] += record.duration
        summarize = getattr(network, "network_summary", None)
        return SimulationResult(
            total_time=total,
            compute_time=sum(busy.values()),
            communication_time=totals.comm,
            per_gpu_busy={gpu: busy[gpu] for gpu in sorted(busy)},
            per_layer=dict(per_layer),
            per_phase=dict(per_phase),
            timeline=totals.timeline,
            wall_time=wall,
            events=engine.dispatched_events,
            iteration_times=iteration_times,
            profile=profiler.to_dict(),
            network=summarize(total_time=total) if summarize else {},
        )
