"""The parallel sweep service.

:class:`SweepRunner` fans a list of :class:`SimulationConfig` points over a
``concurrent.futures.ProcessPoolExecutor`` (or runs them in-process when
``max_workers <= 1``), with:

* a content-addressed on-disk result cache (:mod:`repro.service.cache`);
* shared-work dedup: trace rescaling and performance-model fits are
  memoized per process by :func:`repro.extrapolator.optime.prepare`;
* one plan step: this process builds each distinct extrapolation plan
  (:mod:`repro.core.plan`) once per sweep, and verifies it under
  ``verify``; every point, in-process or on a worker, runs that plan;
* graceful degradation: a failing config yields a structured
  :class:`SweepError`, with its traceback, instead of killing the sweep;
* worker-crash survival: a dead worker breaks only its pool; its
  in-flight points retry in isolation with seeded, bounded backoff, then
  once in-process, before they fail as ``WorkerCrashed``;
* a crash-safe write-ahead journal (:mod:`repro.service.journal`), from
  which a SIGKILL'd sweep resumes bit-identically;
* per-point soft (engine heartbeat) and hard (``SIGALRM``/watchdog)
  deadlines, both reported as ``PointTimeout``;
* a dispatch circuit breaker (:mod:`repro.service.breaker`) that fails
  the rest of a crash/timeout storm fast as ``CircuitOpen``;
* point observers, called once per finished point with its outcome and
  the progress so far: completed/total counts, cache hit-rate,
  events/sec and an ETA.

``docs/sweeps.md`` and ``docs/resilience.md`` describe each in full.

Every point walks one explicit lifecycle (:class:`PointState`), and a
single transition function, :meth:`SweepRunner._advance`, performs all
of its bookkeeping: journal records, breaker feedback, per-point
metrics, cache stores and point observers.  The dispatch loops
only decide *which* transition happens next.

Determinism: TrioSim is deterministic and every point is independent, so
parallel execution, in-process execution, cache replay, and journal
resume all produce bit-identical ``total_time`` values.

The failure taxonomy (``SweepError.kind``) is documented in
``docs/resilience.md``: ``VerifyError`` (rejected before dispatch),
``PointTimeout`` (either deadline), ``WorkerCrashed`` (all rungs
exhausted), ``CircuitOpen`` (failed fast by the breaker), and
``Interrupted`` (Ctrl-C before the point completed).
"""

from __future__ import annotations

import os
import random
import time as _wall
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.analysis.findings import Report
from repro.analysis.linter import lint_config
from repro.analysis.reporters import render_text
from repro.core.config import SimulationConfig
from repro.core.plan import ExtrapolationPlan, PlanCache
from repro.core.results import SimulationResult
from repro.core.simulator import TrioSim
from repro.extrapolator.optime import rescale
from repro.service import worker as _worker
from repro.service.breaker import CircuitBreaker
from repro.service.cache import ResultCache, trace_digest
from repro.service.journal import (
    JournalMismatchError,
    SweepJournal,
    check_resume,
    sweep_fingerprint,
)
from repro.service.outcome import (
    TERMINAL_STATES,
    PointState,
    SweepError,
    SweepMetrics,
    SweepOutcome,
    SweepPointError,
)
from repro.trace.trace import Trace

__all__ = [
    "CircuitBreaker",
    "PointState",
    "SweepError",
    "SweepMetrics",
    "SweepOutcome",
    "SweepPointError",
    "SweepRunner",
]

#: Called as ``observer(outcome, progress)`` each time a point reaches a
#: terminal state; ``progress`` is :meth:`SweepMetrics.detail`.
PointObserver = Callable[[SweepOutcome, dict], None]


#: Legal lifecycle moves by source state: the listed targets, plus
#: ``interrupted`` from every state that is not terminal (terminal
#: states have no entry).  A refused admission (``queued -> admitted``)
#: lands in ``failed``.
_NEXT_STATES = {
    source: frozenset(targets) | {PointState.INTERRUPTED}
    for source, targets in {
        PointState.QUEUED: {PointState.ADMITTED, PointState.DONE,
                            PointState.FAILED},
        PointState.ADMITTED: {PointState.DISPATCHED},
        PointState.DISPATCHED: {PointState.DONE, PointState.FAILED,
                                PointState.CRASHED},
        PointState.CRASHED: {PointState.RETRY},
        PointState.RETRY: {PointState.RETRY, PointState.RESCUE,
                           PointState.DONE, PointState.FAILED},
        PointState.RESCUE: {PointState.DONE, PointState.FAILED},
    }.items()
}


@dataclass
class _Sweep:
    """The per-run state every lifecycle step reads."""

    trace: Trace
    record_timeline: bool
    base_key: str
    metrics: SweepMetrics
    started: float
    #: The journal, when this run writes one, and its point keys by
    #: index.
    journal: Optional[SweepJournal] = None
    keys: List[str] = field(default_factory=list)
    #: Prepared traces by GPU name, handed to every pool (re)build.
    traces: Dict[str, Trace] = field(default_factory=dict)
    #: The sweep's plans by plan key, built by the plan step and handed
    #: to every point; ``None`` when plan sharing is off.
    plans: Optional[Dict[str, ExtrapolationPlan]] = None


class SweepRunner:
    """Run many ``(trace, config)`` points fast, cached, and fault-tolerant.

    Parameters
    ----------
    max_workers:
        Process count for the fan-out; ``None`` uses the machine's CPU
        count, and values ``<= 1`` run every point in-process (the
        deterministic baseline — results are bit-identical either way).
    cache:
        A :class:`ResultCache`, a directory path for one, or ``None`` to
        disable caching.
    deadline_soft:
        Optional cooperative per-point budget (seconds): the engine
        heartbeat checks the wall clock every few hundred events and
        stops the point with a ``PointTimeout`` error carrying its
        partial progress (events dispatched, simulated time reached).
        A per-config ``config.deadline_soft`` overrides the sweep-wide
        value for that point.
    deadline_hard:
        Optional uncooperative per-point budget (seconds): ``SIGALRM``
        (or the watchdog thread) kills the point wherever it is.  Give
        both — soft first for attributable partial progress, hard as the
        backstop for points stuck outside the engine loop.  Per-config
        ``config.deadline_hard`` overrides.
    journal:
        A :class:`~repro.service.journal.SweepJournal`, a directory path
        for one, or ``None`` (default) to disable write-ahead journaling
        entirely (zero overhead).  With a journal every dispatch and
        every terminal disposition is fsync'd before the sweep proceeds.
    resume:
        With a journal: replay completed points from it and re-dispatch
        only the remainder.  The journal's fingerprint must match this
        sweep (trace, point set and order, timeline flag) or the runner
        raises :class:`~repro.service.journal.JournalMismatchError`
        (lint rule ``SV001``); resume admission findings land on
        :attr:`last_resume_report`.
    breaker:
        A :class:`CircuitBreaker`, ``True`` for one with defaults, or
        ``None`` (default) to dispatch unconditionally.  See the class
        docstring for trip/probe semantics.
    observers:
        Callables run as ``observer(outcome, progress)`` each time a
        point finishes (see :data:`PointObserver`); a value that is not
        callable raises ``TypeError`` here, before anything runs.
    verify:
        Every config is checked against the config rules before any
        simulation is dispatched, always: a point with error findings
        becomes a structured ``VerifyError`` outcome and never reaches a
        worker.  With *verify*, the plan step also deep-verifies each
        distinct plan once with ``verify_plan`` (the ``DV`` rules:
        malformed tasks and dependencies, mismatched collectives,
        memory-infeasible schedules), rejecting
        failures the same way, and each point runs the runtime
        sanitizers (``SZ``) and race detectors (``RC``), whose findings
        ride its outcome's ``sanitizer_findings``.
    plan_cache:
        Extrapolation-plan sharing (on by default): each sweep builds
        every distinct plan once, in this process, through a
        :class:`PlanCache` LRU that lives as long as the runner, and
        every point runs the plan built there.  ``False`` disables it
        and every point re-extrapolates; results are bit-identical
        either way.
    """

    #: Isolated re-executions granted to a point whose worker died; a
    #: point still crashing after these gets the in-process rescue run.
    MAX_CRASH_RETRIES = 2

    #: Ceiling on any single backoff sleep, seconds.
    MAX_BACKOFF = 2.0

    #: Base of the bounded exponential backoff between isolated retries
    #: of a crashed point, seconds.
    RETRY_BACKOFF = 0.05

    #: Seed of the backoff jitter, so retry timing (the only
    #: nondeterminism a crash introduces) is reproducible.
    RETRY_SEED = 0

    def __init__(self, max_workers: Optional[int] = None,
                 cache: Union[ResultCache, str, Path, None] = None,
                 observers: Sequence[PointObserver] = (),
                 verify: bool = False,
                 plan_cache: bool = True,
                 deadline_soft: Optional[float] = None,
                 deadline_hard: Optional[float] = None,
                 journal: Union[SweepJournal, str, Path, None] = None,
                 resume: bool = False,
                 breaker: Union[CircuitBreaker, bool, None] = None):
        for observer in observers:
            if not callable(observer):
                raise TypeError(f"sweep observer {observer!r} is not "
                                "callable")
        self.observers: List[PointObserver] = list(observers)
        self.max_workers = max_workers if max_workers is not None \
            else (os.cpu_count() or 1)
        self.cache = (ResultCache(cache)
                      if isinstance(cache, (str, Path)) else cache)
        self.plan_cache = PlanCache() if plan_cache else None
        if (deadline_soft is not None and deadline_hard is not None
                and deadline_soft > deadline_hard):
            raise ValueError("deadline_soft must not exceed deadline_hard")
        self.deadline_soft = deadline_soft
        self.deadline_hard = deadline_hard
        self.journal = (SweepJournal(journal)
                        if isinstance(journal, (str, Path)) else journal)
        self.resume = resume
        if breaker is True:
            self.breaker: Optional[CircuitBreaker] = CircuitBreaker()
        else:
            self.breaker = breaker or None
        self.verify = verify
        self.last_metrics: Optional[SweepMetrics] = None
        #: Resume admission findings (SV rules) from the latest run().
        self.last_resume_report = None

    def _plan_step(self, sweep: _Sweep,
                   points: List[SweepOutcome]) -> List[SweepOutcome]:
        """Build each distinct plan of *points* once, in this process,
        into the sweep's plan table; with verify, deep-verify each one
        too.  Returns the points that may still run.

        Points differing only in execute-time parameters share a plan, so
        a 16-point network sweep builds (and verifies) one graph, not
        sixteen, and every point runs it.  Builds go through the
        runner's LRU; without plan sharing, verify builds each graph
        only to check it, and every point builds its own again.  Every
        build this step makes counts in ``plan_builds``.  A config whose
        graph can't be built is passed through: it fails identically,
        with a proper error record, when its point runs.
        """
        if sweep.plans is None and not self.verify:
            return points
        from repro.analysis.verifier import verify_plan

        reports: Dict[str, Optional[Report]] = {}
        survivors: List[SweepOutcome] = []
        for outcome in points:
            report = None
            try:
                sim = TrioSim(sweep.trace, outcome.config,
                              record_timeline=False)
                key = sim.plan_key()
                if key not in reports:
                    if sweep.plans is None:
                        plan, source = sim.build_plan(), "built"
                    else:
                        plan, source = self.plan_cache.get_or_build(
                            key, sim.build_plan)
                        sweep.plans[key] = plan
                    sweep.metrics.plan_builds += source == "built"
                    reports[key] = (verify_plan(plan, config=outcome.config)
                                    if self.verify else None)
                report = reports[key]
            except Exception:
                pass
            if report is not None and report.has_errors:
                self._reject(sweep, outcome, report)
            else:
                survivors.append(outcome)
        return survivors

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, trace: Trace, configs: Sequence[SimulationConfig],
            record_timeline: bool = False,
            labels: Optional[Sequence[str]] = None) -> List[SweepOutcome]:
        """Simulate every config against *trace*; outcomes in input order."""
        configs = list(configs)
        labels = list(labels) if labels is not None else [""] * len(configs)
        if len(labels) != len(configs):
            raise ValueError("labels must match configs in length")
        started = _wall.perf_counter()
        metrics = SweepMetrics(total=len(configs))
        self.last_metrics = metrics

        outcomes = [
            SweepOutcome(index=i, config=cfg, label=labels[i])
            for i, cfg in enumerate(configs)
        ]
        base_key = (trace_digest(trace)
                    if (self.cache is not None or self.journal is not None)
                    else "")
        sweep = _Sweep(trace, record_timeline, base_key, metrics, started,
                       plans=None if self.plan_cache is None else {})

        # Replay a matching journal (resume) or write a fresh begin
        # record, before the gate or any simulation work.
        survivors = self._journal_open(sweep, outcomes)

        try:
            # The pre-dispatch gate: the config rules check every point;
            # with verify, the plan step then deep-verifies each distinct
            # task graph once.  Either tier's errors fail the point as
            # VerifyError.  Without verify, the plan step waits for the
            # cache pass and builds only what the pending points run.
            admitted = []
            for outcome in survivors:
                report = lint_config(outcome.config, trace=trace)
                if report.has_errors:
                    self._reject(sweep, outcome, report)
                else:
                    admitted.append(outcome)
            survivors = (self._plan_step(sweep, admitted)
                         if self.verify else admitted)

            # Cache pass: satisfy points without any simulation.
            pending: List[SweepOutcome] = []
            for outcome in survivors:
                hit = None
                if self.cache is not None:
                    key = self.cache.point_key(base_key, outcome.config,
                                               record_timeline)
                    hit = self.cache.load(key)
                if hit is not None:
                    outcome.result = hit
                    outcome.cached = True
                    self._advance(sweep, outcome, PointState.DONE)
                else:
                    pending.append(outcome)
            if not self.verify:
                self._plan_step(sweep, pending)

            workers = min(self.max_workers, len(pending))
            if workers > 1:
                self._run_parallel(sweep, pending, workers)
            else:
                self._run_inproc(sweep, pending)
        except KeyboardInterrupt:
            # Mark everything that never reached a terminal state, leave
            # a clean journal tail, and let the interrupt propagate (the
            # CLI exits 130).
            for outcome in outcomes:
                if outcome.state not in TERMINAL_STATES:
                    self._advance(sweep, outcome, PointState.INTERRUPTED)
            self._close(sweep)
            raise
        self._close(sweep)
        return outcomes

    def _close(self, sweep: _Sweep) -> None:
        """Stamp the sweep's elapsed time and write the journal's end
        record."""
        sweep.metrics.elapsed = _wall.perf_counter() - sweep.started
        if self.journal is not None:
            self.journal.end(sweep.metrics.detail())
            self.journal.close()

    def _journal_open(self, sweep: _Sweep,
                      outcomes: List[SweepOutcome]) -> List[SweepOutcome]:
        """Begin (or resume) the journal; returns the points still to run.

        Without a journal this is the identity on *outcomes*.  On resume,
        completed points are replayed from the journal's ``done`` records
        — results round-trip through JSON exactly, so a replayed point is
        bit-identical to re-simulating it — and only the remainder is
        returned for the gate/cache/simulate passes.
        """
        self.last_resume_report = None
        if self.journal is None:
            return outcomes
        keys = [
            ResultCache.point_key(sweep.base_key, o.config,
                                  sweep.record_timeline)
            for o in outcomes
        ]
        sweep.journal, sweep.keys = self.journal, keys
        fingerprint = sweep_fingerprint(sweep.base_key, keys,
                                        sweep.record_timeline)
        if not (self.resume and self.journal.exists()):
            self.journal.begin(fingerprint, sweep.base_key, len(outcomes),
                               sweep.record_timeline)
            return outcomes
        state = self.journal.read()
        report = check_resume(state, fingerprint,
                              deadline_hard=self.deadline_hard)
        self.last_resume_report = report
        if report.has_errors:
            raise JournalMismatchError(report)
        completed = state.completed
        survivors: List[SweepOutcome] = []
        for outcome in outcomes:
            record = completed.get(outcome.index)
            key = keys[outcome.index]
            # Defense in depth on top of the fingerprint check: a done
            # record is replayed only if it carries exactly this point's
            # content-addressed key; anything else (a forged or foreign
            # record) simply re-runs.
            if record is None or record.get("key") != key:
                survivors.append(outcome)
                continue
            outcome.result = SimulationResult.from_dict(record["result"])
            outcome.resumed = True
            outcome.cached = bool(record.get("cached"))
            self._advance(sweep, outcome, PointState.DONE)
        self.journal.resume_marker(fingerprint,
                                   replayed=sweep.metrics.resumed,
                                   remaining=len(survivors))
        return survivors

    # ------------------------------------------------------------------
    # The point lifecycle
    # ------------------------------------------------------------------
    def _advance(self, sweep: _Sweep, outcome: SweepOutcome,
                 to: PointState) -> PointState:
        """Move *outcome* to state *to*; returns the state reached.

        The point lifecycle's single transition function (see
        :class:`PointState`), and the only code that writes the
        journal's per-point records, feeds the circuit breaker, counts
        per-point :class:`SweepMetrics`, stores fresh results in the
        result cache, and fires ``sweep_point``.  Callers put a terminal
        point's ``result`` or ``error`` on the outcome first.  Admission
        is the one move the function may redirect: a point the breaker
        refuses lands in ``failed`` as ``CircuitOpen`` instead.
        """
        source = outcome.state
        if to not in _NEXT_STATES.get(source, ()):
            raise RuntimeError(f"sweep point {outcome.index}: illegal "
                               f"transition {source.value} -> {to.value}")
        metrics, breaker, journal = sweep.metrics, self.breaker, sweep.journal
        if (to is PointState.ADMITTED and breaker is not None
                and not breaker.admit()):
            # Failed fast, naming the failure kind that tripped the
            # breaker; journaled, so a resume re-dispatches the point
            # once the substrate recovers.
            metrics.circuit_skips += 1
            culprit = breaker.last_failure_kind or "failures"
            outcome.error = SweepError(
                kind="CircuitOpen",
                message=(f"dispatch circuit is open after repeated "
                         f"{culprit}; point failed fast without reaching "
                         "a worker"),
            )
            to = PointState.FAILED
        outcome.state = to
        if to is PointState.DISPATCHED and journal is not None:
            # Write-ahead: the point is about to reach a worker.
            journal.dispatch(outcome.index, sweep.keys[outcome.index],
                             outcome.label)
        elif to is PointState.CRASHED and breaker is not None:
            metrics.circuit_trips += breaker.record_failure("WorkerCrashed")
        elif to is PointState.RETRY:
            outcome.retries += 1
            metrics.retries += 1
        elif to is PointState.INTERRUPTED:
            # Neither completed nor reported: the point never reached an
            # answer, and a resume re-dispatches exactly these.
            outcome.error = SweepError(
                kind="Interrupted",
                message="sweep interrupted before this point completed",
            )
            metrics.errors += 1
            metrics.interrupted += 1
            if journal is not None:
                journal.interrupt(outcome.index)
        if to not in (PointState.DONE, PointState.FAILED):
            return to

        # A verdict: done carries a result, failed an error.
        result, error = outcome.result, outcome.error
        if source is PointState.RESCUE:
            if result is not None:
                outcome.degraded = True
                metrics.degraded_recoveries += 1
            else:
                metrics.worker_crashes += 1
                error = outcome.error = SweepError(
                    kind="WorkerCrashed",
                    message=f"worker process died simulating this point "
                            f"{outcome.retries} time(s) in isolation "
                            f"(after crashing a shared pool), and the "
                            f"in-process rescue run also failed",
                    traceback=error.traceback if error else "",
                )
        elif source is PointState.DISPATCHED and breaker is not None:
            # Only first-dispatch verdicts feed the breaker; a crash
            # victim was counted when its pool broke.
            if error is not None:
                metrics.circuit_trips += breaker.record_failure(error.kind)
            else:
                breaker.record_success()
        metrics.completed += 1
        if error is not None:
            metrics.errors += 1
            metrics.timeouts += error.kind == _worker.TIMEOUT_KIND
        elif outcome.resumed:
            # Replayed work: never fresh events, plan traffic, cache
            # writes, or a second journal record.
            metrics.resumed += 1
        elif outcome.cached:
            metrics.cache_hits += 1
        elif result is not None:
            metrics.fresh_events += result.events
            plan_source = result.profile.get("plan_source")
            metrics.plan_builds += plan_source == "built"
            metrics.plan_cache_hits += plan_source == "memory"
            if self.cache is not None:
                self.cache.store(
                    self.cache.point_key(sweep.base_key, outcome.config,
                                         sweep.record_timeline),
                    result)
        if journal is not None and not outcome.resumed:
            key = sweep.keys[outcome.index]
            if error is not None:
                journal.fail(outcome.index, key, error.to_dict(), error.kind)
            elif result is not None:
                journal.done(outcome.index, key, result.to_dict(),
                             cached=outcome.cached)
        metrics.elapsed = _wall.perf_counter() - sweep.started
        if self.observers:
            progress = metrics.detail()
            for observer in self.observers:
                observer(outcome, progress)
        return to

    def _reject(self, sweep: _Sweep, outcome: SweepOutcome,
                report: Report) -> None:
        """Fail a point before dispatch on its gate *report*.

        The findings stand in for a traceback: the point never ran, but
        the error record must still explain why.
        """
        outcome.error = SweepError(
            kind="VerifyError",
            message="; ".join(str(f) for f in report.errors),
            traceback=render_text(report, source="verify"),
        )
        self._advance(sweep, outcome, PointState.FAILED)

    @staticmethod
    def _apply_reply(outcome: SweepOutcome, reply: dict) -> PointState:
        """Put a run reply (a :func:`~repro.service.worker.run_point`
        dict, or :meth:`_simulate_here`'s) on *outcome*; returns the
        terminal state it calls for."""
        if reply["ok"]:
            result = reply["result"]
            outcome.result = (result if isinstance(result, SimulationResult)
                              else SimulationResult.from_dict(result))
            outcome.sanitizer_findings = reply.get("sanitizer", [])
            return PointState.DONE
        outcome.error = SweepError.from_dict(reply["error"])
        return PointState.FAILED

    def _deadlines(self, config: SimulationConfig) -> dict:
        """One point's ``timeout`` (hard) and ``deadline_soft`` budgets:
        a config's own value overrides the sweep's."""
        hard, soft = config.deadline_hard, config.deadline_soft
        return {"timeout": self.deadline_hard if hard is None else hard,
                "deadline_soft": self.deadline_soft if soft is None else soft}

    def _simulate_here(self, sweep: _Sweep, outcome: SweepOutcome) -> dict:
        """Simulate one point in this process; a run reply, never raises.

        The in-process path and the rescue rung both land here.  Chaos
        specs stay disarmed: a config that genuinely kills its host
        raises instead of taking the sweep down.  Errors are normalized
        by :func:`~repro.service.worker.error_record` (every deadline
        flavour becomes ``PointTimeout``, partial progress kept).
        """
        config = outcome.config
        findings: list = []
        try:
            result = _worker.simulate_point(
                sweep.trace, config, sweep.record_timeline,
                sanitizer_sink=findings,
                plan_cache=(None if sweep.plans is None
                            else PlanCache(sweep.plans)),
                verify="runtime" if self.verify else False,
                **self._deadlines(config),
            )
        except Exception as exc:
            return {"ok": False, "error": _worker.error_record(exc)}
        return {"ok": True, "result": result, "sanitizer": findings}

    def _run_inproc(self, sweep: _Sweep,
                    points: List[SweepOutcome]) -> None:
        for outcome in points:
            state = self._advance(sweep, outcome, PointState.ADMITTED)
            if state is not PointState.ADMITTED:
                continue
            self._advance(sweep, outcome, PointState.DISPATCHED)
            reply = self._simulate_here(sweep, outcome)
            self._advance(sweep, outcome, self._apply_reply(outcome, reply))

    # ------------------------------------------------------------------
    # Pool dispatch
    # ------------------------------------------------------------------
    def _point_payload(self, sweep: _Sweep, outcome: SweepOutcome) -> dict:
        return {
            "trace_key": rescale(sweep.trace, outcome.config.gpu).gpu_name,
            "config": outcome.config.to_dict(),
            "record_timeline": sweep.record_timeline,
            **self._deadlines(outcome.config),
            # The static tier already ran once per distinct plan in
            # _plan_step; workers only need the runtime tier.
            "verify": "runtime" if self.verify else False,
        }

    def _new_pool(self, workers: int, traces: Dict[str, Trace],
                  plans: Optional[Dict[str, ExtrapolationPlan]]
                  ) -> ProcessPoolExecutor:
        """The executor points are dispatched to — the single seam
        between the lifecycle and the processes running it.  Every
        worker receives the sweep's trace and plan tables once.
        """
        return ProcessPoolExecutor(
            max_workers=workers,
            initializer=_worker.init_worker,
            initargs=(traces, plans),
        )

    def _submit(self, pool, sweep: _Sweep,
                batch: List[SweepOutcome]) -> Future:
        """Submit *batch* as one ``run_chunk`` future (replies come
        back as a list in batch order)."""
        return pool.submit(_worker.run_chunk,
                           [self._point_payload(sweep, o) for o in batch])

    def _chunk_size(self, n_points: int, workers: int) -> int:
        """Points per pool submission.

        Single-point chunks (the most precise crash attribution) until
        the sweep is big enough that at least four chunks per worker
        remain after chunking, then chunks of up to 8 points — bounding
        both the per-future overhead and the blast radius of a
        chunk-killing crash.  Every point in a chunk is still admitted
        by the breaker and write-ahead journaled on its own, runs under
        its own deadlines, and degrades to its own error record.
        """
        return max(1, min(8, n_points // (workers * 4)))

    def _run_parallel(self, sweep: _Sweep, points: List[SweepOutcome],
                      workers: int) -> None:
        # Each distinct target GPU's trace is rescaled once per sweep,
        # keyed by its GPU name (unique for one source trace); every pool
        # (re)build hands this same table to its workers.
        for outcome in points:
            trace = rescale(sweep.trace, outcome.config.gpu)
            sweep.traces[trace.gpu_name] = trace
        crashed = self._parallel_wave(sweep, points, workers)
        if crashed:
            self._retry_crashed(sweep, crashed)

    def _crash(self, sweep: _Sweep, batch: List[SweepOutcome],
               crashed: List[SweepOutcome]) -> None:
        """Every point of *batch* died with its pool: queue it for the
        isolated retry pass."""
        for outcome in batch:
            self._advance(sweep, outcome, PointState.CRASHED)
        crashed.extend(batch)

    def _settle(self, sweep: _Sweep, batch: List[SweepOutcome],
                future: Future, crashed: List[SweepOutcome]) -> bool:
        """Drive a finished future's points to their verdicts; True when
        the future's worker died (the pool is broken)."""
        exc = future.exception()
        if isinstance(exc, BrokenProcessPool):
            # Every in-flight future on the pool fails with it, so which
            # point killed the worker is unknown here — the isolated
            # retry pass attributes the crash (and splits chunks back
            # into single points).
            self._crash(sweep, batch, crashed)
            return True
        replies = future.result() if exc is None else [
            {"ok": False, "error": {"kind": type(exc).__name__,
                                    "message": str(exc)}}] * len(batch)
        for outcome, reply in zip(batch, replies):
            self._advance(sweep, outcome, self._apply_reply(outcome, reply))
        return False

    def _parallel_wave(self, sweep: _Sweep, points: List[SweepOutcome],
                       workers: int) -> List[SweepOutcome]:
        """Fan *points* over a pool; returns the unattributed crash victims.

        Dispatch runs through a sliding window — at most ``2 * workers``
        futures are in flight — so every submission passes the circuit
        breaker with current information and is write-ahead journaled
        just before it reaches the pool.  Points travel in chunks of
        :meth:`_chunk_size` per future (the worker runs its points
        sequentially, each under its own deadline), which amortizes the
        submit/result round-trip on large sweeps.  When the breaker is
        open or half-open with work still in flight, dispatch pauses
        rather than failing the queue fast, so a successful half-open
        probe closes the breaker and the remaining points dispatch
        normally (the same recovery semantics as the in-process path).
        A worker death breaks only the in-flight window: those points
        are collected for the isolated retry pass, the pool is rebuilt,
        and the undispatched queue continues on the fresh pool.  Ctrl-C
        cancels the queue, waits out the running points, and re-raises —
        no worker processes outlive the sweep.
        """
        crashed: List[SweepOutcome] = []
        queue = deque(points)
        window = max(1, workers * 2)
        chunk_size = self._chunk_size(len(points), workers)
        pool = self._new_pool(workers, sweep.traces, sweep.plans)
        futures: Dict[Future, List[SweepOutcome]] = {}
        try:
            while queue or futures:
                while queue and len(futures) < window:
                    batch: List[SweepOutcome] = []
                    while queue and len(batch) < chunk_size:
                        if (self.breaker is not None
                                and self.breaker.state != "closed"
                                and (futures or batch)):
                            # The breaker is not closed while work is in
                            # flight: admitting more would fail the queue
                            # fast before a probe's verdict could close
                            # it again, so wait for the window to drain.
                            # Checked per point, so an admitted probe
                            # drags no fail-fast victims into its chunk.
                            break
                        outcome = queue.popleft()
                        state = self._advance(sweep, outcome,
                                              PointState.ADMITTED)
                        if state is PointState.ADMITTED:
                            self._advance(sweep, outcome,
                                          PointState.DISPATCHED)
                            batch.append(outcome)
                    if not batch:
                        break  # breaker paused or fast-failed the queue
                    try:
                        futures[self._submit(pool, sweep, batch)] = batch
                    except BrokenProcessPool:
                        # The pool broke before the wait loop saw it;
                        # these points are crash-window victims too.
                        self._crash(sweep, batch, crashed)
                        pool.shutdown(wait=False, cancel_futures=True)
                        pool = self._new_pool(workers, sweep.traces,
                                              sweep.plans)
                if not futures:
                    continue  # breaker fast-failed the whole window
                done, _ = wait(set(futures), return_when=FIRST_COMPLETED)
                broken = False
                for future in done:
                    broken |= self._settle(sweep, futures.pop(future),
                                           future, crashed)
                if broken:
                    # The rest of the window died with the pool; settle
                    # the stragglers (a future may still have finished
                    # cleanly in the meantime) and rebuild.
                    for future, batch in futures.items():
                        if future.done() and not future.cancelled():
                            self._settle(sweep, batch, future, crashed)
                        else:
                            self._crash(sweep, batch, crashed)
                    futures.clear()
                    pool.shutdown(wait=False, cancel_futures=True)
                    pool = self._new_pool(workers, sweep.traces, sweep.plans)
        except KeyboardInterrupt:
            pool.shutdown(wait=True, cancel_futures=True)
            raise
        pool.shutdown()
        return crashed

    # ------------------------------------------------------------------
    # The crash ladder
    # ------------------------------------------------------------------
    def _retry_crashed(self, sweep: _Sweep,
                       crashed: List[SweepOutcome]) -> None:
        """Re-execute crash victims one at a time, each on a fresh
        single-worker pool, with seeded bounded exponential backoff —
        so a repeat crash is attributable to exactly one point.  A point
        that kills every isolated worker gets one last
        graceful-degradation rung: an in-process run with chaos specs
        disarmed (no pool to crash); only if that also fails is the
        point declared ``WorkerCrashed``."""
        rng = random.Random(self.RETRY_SEED)
        for outcome in sorted(crashed, key=lambda o: o.index):
            reply = None
            for attempt in range(self.MAX_CRASH_RETRIES):
                _wall.sleep(self._backoff_delay(rng, attempt))
                self._advance(sweep, outcome, PointState.RETRY)
                reply = self._isolated_attempt(sweep, outcome)
                if reply is not None:
                    break
            if reply is None:
                self._advance(sweep, outcome, PointState.RESCUE)
                reply = self._simulate_here(sweep, outcome)
            self._advance(sweep, outcome, self._apply_reply(outcome, reply))

    def _backoff_delay(self, rng: random.Random, attempt: int) -> float:
        """Jittered exponential backoff, capped at :attr:`MAX_BACKOFF`."""
        return min(self.MAX_BACKOFF,
                   self.RETRY_BACKOFF * (2 ** attempt) * (0.5 + rng.random()))

    def _isolated_attempt(self, sweep: _Sweep,
                          outcome: SweepOutcome) -> Optional[dict]:
        """One retry on a dedicated pool; ``None`` when the worker died."""
        pool = self._new_pool(1, sweep.traces, sweep.plans)
        try:
            return self._submit(pool, sweep, [outcome]).result()[0]
        except BrokenProcessPool:
            return None
        finally:
            pool.shutdown()
