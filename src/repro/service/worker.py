"""Sweep-point execution, shared by worker processes and in-process runs.

A worker process is seeded once (via the pool initializer) with every
prepared trace of the sweep, keyed by GPU name.  Within the process,
:func:`repro.extrapolator.optime.prepare` memoizes the fitted performance
model per ``(trace, perf_model)`` — the expensive shared work (piecewise
fits, Li's Model regression) happens once per process, not once per sweep
point.

Per-point timeouts use ``SIGALRM`` so a runaway simulation inside a worker
is interrupted and reported as a structured error instead of hanging the
pool slot forever.  On platforms (or threads) without ``SIGALRM`` a
thread-based watchdog takes over: a daemon timer injects
:class:`PointTimeoutError` into the simulating thread with
``PyThreadState_SetAsyncExc``, so the deadline still fires instead of
silently degrading to "no timeout".
"""

from __future__ import annotations

import ctypes
import signal
import threading
import time
import traceback
from contextlib import contextmanager
from typing import Dict, List, Optional

from repro.core.config import SimulationConfig
from repro.core.plan import PlanCache
from repro.core.simulator import TrioSim
from repro.trace.trace import Trace

#: Error ``kind`` reported for any deadline overrun (soft or hard) —
#: the sweep failure taxonomy's name for it (see ``docs/resilience.md``).
TIMEOUT_KIND = "PointTimeout"


class PointTimeoutError(Exception):
    """A sweep point exceeded its per-point wall-clock budget."""

    #: Partial progress at expiry (events, simulated_time); the hard
    #: deadline can't capture any, the soft one fills it in.
    detail: dict = {}


class PointSoftTimeoutError(PointTimeoutError):
    """Cooperative expiry: the engine heartbeat saw the budget pass.

    Unlike the hard deadline (``SIGALRM`` / watchdog injection, which can
    land anywhere), the soft deadline raises from a known point in the
    engine loop, so it can report partial progress: how many events were
    dispatched and how far virtual time advanced before the stop.
    """

    def __init__(self, message: str, detail: Optional[dict] = None):
        super().__init__(message)
        self.detail = dict(detail or {})


def soft_deadline_heartbeat(seconds: float):
    """Engine heartbeat enforcing a cooperative *seconds* budget.

    The wall clock starts when the closure is built (just before
    ``TrioSim.run``), and every
    :data:`~repro.core.simulator.HEARTBEAT_EVERY` events the
    heartbeat compares elapsed time against the budget, raising
    :class:`PointSoftTimeoutError` with the partial progress snapshot
    once exceeded.
    """
    start = time.monotonic()
    budget = float(seconds)

    def _beat(engine) -> None:
        elapsed = time.monotonic() - start
        if elapsed > budget:
            raise PointSoftTimeoutError(
                f"sweep point exceeded {budget}s soft deadline "
                f"after {elapsed:.2f}s",
                detail={
                    "elapsed": elapsed,
                    "events": engine.dispatched_events,
                    "simulated_time": engine.now,
                },
            )

    return _beat


def error_record(exc: BaseException) -> dict:
    """The process-boundary error dict for *exc*.

    Normalizes every deadline flavour (hard ``PointTimeoutError``, soft
    subclass) to the taxonomy kind ``PointTimeout`` and attaches the
    partial-progress ``detail`` when the exception carries one.
    """
    kind = type(exc).__name__
    if isinstance(exc, PointTimeoutError):
        kind = TIMEOUT_KIND
    record = {
        "kind": kind,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }
    detail = getattr(exc, "detail", None)
    if detail:
        record["detail"] = dict(detail)
    return record


class _Watchdog:
    """Thread-based deadline for contexts where ``SIGALRM`` can't deliver.

    A daemon :class:`threading.Timer` injects :class:`PointTimeoutError`
    into the watched thread via ``PyThreadState_SetAsyncExc`` — the
    asynchronous-exception hook the interpreter checks between bytecodes.
    The injection is best-effort (a thread blocked in a long C call won't
    see it until it returns), which matches what ``SIGALRM`` guarantees
    anyway.  :meth:`cancel` takes a lock shared with the expiry path so a
    body that finishes just as the timer fires can't be interrupted after
    it already returned.
    """

    def __init__(self, seconds: float):
        self._target = threading.get_ident()
        self._lock = threading.Lock()
        self._done = False
        self._timer = threading.Timer(seconds, self._expire)
        self._timer.daemon = True

    def start(self) -> "_Watchdog":
        self._timer.start()
        return self

    def _expire(self) -> None:
        with self._lock:
            if self._done:
                return
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(self._target),
                ctypes.py_object(PointTimeoutError),
            )

    def cancel(self) -> None:
        with self._lock:
            self._done = True
        self._timer.cancel()


@contextmanager
def deadline(seconds: Optional[float]):
    """Raise :class:`PointTimeoutError` if the body runs past *seconds*.

    Uses ``SIGALRM`` on the main thread of platforms that have it; falls
    back to a :class:`_Watchdog` thread everywhere else (worker threads,
    platforms without ``SIGALRM``), so the budget always arms.  No-op only
    when *seconds* is falsy.
    """
    if not seconds:
        yield
        return
    alarm_usable = (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not alarm_usable:
        watchdog = _Watchdog(float(seconds)).start()
        try:
            yield
        finally:
            watchdog.cancel()
        return

    def _expired(signum, frame):
        raise PointTimeoutError(f"sweep point exceeded {seconds}s timeout")

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Per-process shared state
# ----------------------------------------------------------------------

#: Prepared traces this worker may simulate, keyed by GPU name.
_TRACES: Dict[str, Trace] = {}

#: This worker's extrapolation-plan cache, or ``None`` when disabled.
_PLAN_CACHE: Optional[PlanCache] = None


def init_worker(traces: Dict[str, Trace],
                plan_mode: Optional[str] = "") -> None:
    """Pool initializer: receive every prepared trace exactly once.

    *traces* is the sweep's ``{gpu_name: Trace}`` table, built by the
    parent process.  Under the ``fork`` start method the child inherits
    it without any pickling; under ``spawn`` or ``forkserver`` it
    crosses as one plain pickle per worker.

    *plan_mode* configures plan caching in this process: ``None``
    disables it, ``""`` (the default) gives the worker a private
    in-memory :class:`PlanCache`, and any other string is a directory a
    disk-backed cache shares with the parent and sibling workers — the
    parent pre-builds each distinct plan there, so workers only ever
    load.
    """
    global _PLAN_CACHE
    _TRACES.clear()
    _TRACES.update(traces)
    if plan_mode is None:
        _PLAN_CACHE = None
    elif plan_mode == "":
        _PLAN_CACHE = PlanCache()
    else:
        _PLAN_CACHE = PlanCache(root=plan_mode)


def simulate_point(trace: Trace, config: SimulationConfig,
                   record_timeline: bool, timeout: Optional[float],
                   sanitizer_sink: Optional[list] = None,
                   allow_chaos: bool = False,
                   plan_cache: Optional[PlanCache] = None,
                   verify=False,
                   deadline_soft: Optional[float] = None):
    """Run one sweep point (optionally under a deadline).

    With ``verify``, the verifier's findings — static ``DV`` warnings,
    ``SZ`` sanitizer and ``RC`` race findings — are appended to
    *sanitizer_sink* as dicts (the process-boundary form).  ``verify``
    may be the string ``"runtime"`` to run only the runtime tier (the
    sweep runner statically verifies each distinct plan pre-dispatch).
    ``allow_chaos`` arms ``chaos_kill_at`` fault specs; worker processes
    are sacrificial, so :func:`run_point` passes ``True``, while
    in-process runs keep the default and such specs raise instead.
    *plan_cache* shares extrapolation plans across points that differ
    only in network/topology/fault parameters.  *deadline_soft* arms the
    cooperative engine-heartbeat budget (seconds) in addition to the hard
    *timeout*; the explicit argument wins over ``config.deadline_soft``.
    """
    soft = deadline_soft if deadline_soft is not None else config.deadline_soft
    heartbeat = soft_deadline_heartbeat(soft) if soft else None
    with deadline(timeout):
        sim = TrioSim(trace, config, record_timeline=record_timeline,
                      allow_chaos=allow_chaos, plan_cache=plan_cache,
                      verify=verify, heartbeat=heartbeat)
        result = sim.run()
        if sanitizer_sink is not None and sim.verify_report is not None:
            sanitizer_sink.extend(sim.verify_report.to_dicts())
        return result


def run_point(payload: dict) -> dict:
    """Process-pool entry point: simulate one serialized sweep point.

    Returns ``{"ok": True, "result": <result dict>}`` on success or
    ``{"ok": False, "error": {kind, message, traceback}}`` on any failure,
    so a failing config degrades to an error record instead of poisoning
    the pool.
    """
    try:
        trace = _TRACES[payload["trace_key"]]
        config = SimulationConfig.from_dict(payload["config"])
        sanitizer_findings: list = []
        result = simulate_point(
            trace, config, payload["record_timeline"], payload["timeout"],
            sanitizer_sink=sanitizer_findings,
            allow_chaos=True, plan_cache=_PLAN_CACHE,
            verify=payload.get("verify", False),
            deadline_soft=payload.get("deadline_soft"),
        )
        return {"ok": True, "result": result.to_dict(),
                "sanitizer": sanitizer_findings}
    except Exception as exc:
        return {"ok": False, "error": error_record(exc)}


def run_chunk(payloads: List[dict]) -> List[dict]:
    """Process-pool entry point: simulate a chunk of sweep points.

    *payloads* is a list of :func:`run_point` payload dicts; replies come
    back in submission order, one :func:`run_point` reply per payload.
    Each point still runs under its own deadlines and degrades to its
    own error record — chunking only amortizes the per-future dispatch
    overhead, it never couples point outcomes (except that a worker
    crash takes the whole in-flight chunk down, which the runner's retry
    pass then re-attributes point by point).

    ``run_point`` is resolved through the module namespace on each call
    so test seams that monkeypatch it keep working under chunking.
    """
    return [run_point(payload) for payload in payloads]
