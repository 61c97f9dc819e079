"""The sweep point lifecycle: one transition function, proven by
seeded failure interleavings.

Every point walks ``queued -> admitted -> dispatched -> {done | failed |
crashed -> isolated-retry -> rescue} | interrupted`` through
``SweepRunner._advance``.  The property under test: whatever mix of
worker crashes, point timeouts, Ctrl-C interrupts and SIGKILLs a sweep
suffers, the journal it leaves behind is one that ``resume=True``
completes, and the completed results equal a serial run key for key.

Most examples drive the runner in-process through a scripted fake
dispatcher (the runner's ``_new_pool`` seam), so 80 seeded
interleavings cost a few seconds; a few more use the real process pool
with a scripted ``run_point`` in the forked workers.  The retry-ladder
tests show each rung recovering a point the other rungs cannot.
"""

import multiprocessing
import os
import random
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.gpus.specs import get_gpu
from repro.service import runner as runner_mod
from repro.service import worker as worker_mod
from repro.service.journal import JOURNAL_NAME, SweepJournal
from repro.service.outcome import TERMINAL_STATES, PointState
from repro.service.runner import (
    CircuitBreaker,
    SweepMetrics,
    SweepOutcome,
    SweepRunner,
    _Sweep,
)
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model

#: Points the interleavings draw from (distinct cache keys).
POINTS = [
    SimulationConfig(parallelism="ddp", num_gpus=n, link_bandwidth=bw)
    for n in (2, 4) for bw in (25e9, 50e9, 100e9, 200e9)
]

#: Host-timing fields: not simulation state, so not compared.
HOST_FIELDS = ("wall_time", "profile")


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A40")).trace(get_model("resnet18"), 16)


@pytest.fixture(scope="module")
def serial(trace):
    """Each point's result dict from a plain serial TrioSim run."""
    return [_comparable(TrioSim(trace, cfg, record_timeline=False)
                        .run().to_dict())
            for cfg in POINTS]


@pytest.fixture
def worker_state(monkeypatch):
    """Isolate the worker module's per-process globals: the fake
    dispatcher initializes "workers" inside this process."""
    monkeypatch.setattr(worker_mod, "_TRACES", {})
    monkeypatch.setattr(worker_mod, "_PLANS", None)


def _comparable(result_dict):
    return {k: v for k, v in result_dict.items() if k not in HOST_FIELDS}


class _Killed(BaseException):
    """Stands in for SIGKILL: unwinds past every handler in the runner,
    so nothing after the last fsync'd journal record is written."""


# ----------------------------------------------------------------------
# The transition function itself
# ----------------------------------------------------------------------
class TestTransitions:
    def _sweep(self, trace):
        return _Sweep(trace, False, "", SweepMetrics(total=1), 0.0)

    def test_illegal_move_is_rejected(self, trace):
        runner = SweepRunner(max_workers=1)
        outcome = SweepOutcome(index=0, config=POINTS[0])
        with pytest.raises(RuntimeError, match="queued -> dispatched"):
            runner._advance(self._sweep(trace), outcome,
                            PointState.DISPATCHED)

    def test_terminal_states_are_final(self, trace):
        runner = SweepRunner(max_workers=1)
        sweep = self._sweep(trace)
        outcome = SweepOutcome(index=0, config=POINTS[0])
        outcome.result = TrioSim(trace, POINTS[0]).run()
        runner._advance(sweep, outcome, PointState.DONE)
        for target in PointState:
            with pytest.raises(RuntimeError, match="illegal transition"):
                runner._advance(sweep, outcome, target)

    def test_refused_admission_lands_in_failed(self, trace):
        breaker = CircuitBreaker(min_samples=1, threshold=0.5,
                                 probe_interval=10)
        breaker.record_failure("WorkerCrashed")
        runner = SweepRunner(max_workers=1, breaker=breaker)
        sweep = self._sweep(trace)
        outcome = SweepOutcome(index=0, config=POINTS[0])
        assert runner._advance(sweep, outcome,
                               PointState.ADMITTED) is PointState.FAILED
        assert outcome.error.kind == "CircuitOpen"
        assert sweep.metrics.circuit_skips == 1
        assert sweep.metrics.completed == 1


# ----------------------------------------------------------------------
# The retry ladder: each rung recovers what the others cannot
# ----------------------------------------------------------------------
_REAL_RUN_POINT = worker_mod.run_point
_REAL_SIMULATE_POINT = worker_mod.simulate_point
_KILLER_GPUS = 8
_CRASH_DIR = None
_CRASHES = 0


def _host_killing_simulate_point(trace, config, *args, **kwargs):
    """The 8-GPU point kills whatever process runs one of its first
    ``_CRASHES`` attempts (a transient host-killing fault, such as the
    OOM killer); attempts are counted in files because each one may run
    in a different process."""
    if config.num_gpus == _KILLER_GPUS:
        attempts = len(os.listdir(_CRASH_DIR))
        if attempts < _CRASHES:
            open(os.path.join(_CRASH_DIR, str(attempts)), "w").close()
            os._exit(3)
    return _REAL_SIMULATE_POINT(trace, config, *args, **kwargs)


class TestRetryLadder:
    @pytest.mark.parametrize("crashes", [1, SweepRunner.MAX_CRASH_RETRIES])
    def test_isolated_retry_recovers_what_rescue_cannot(
            self, trace, tmp_path, monkeypatch, crashes):
        killer = SimulationConfig(parallelism="ddp", num_gpus=_KILLER_GPUS,
                                  link_bandwidth=25e9)
        expected = TrioSim(trace, killer).run().total_time
        attempts = tmp_path / "attempts"
        attempts.mkdir()
        monkeypatch.setattr(worker_mod, "simulate_point",
                            _host_killing_simulate_point)
        monkeypatch.setitem(globals(), "_CRASH_DIR", str(attempts))
        monkeypatch.setitem(globals(), "_CRASHES", crashes)

        monkeypatch.setattr(SweepRunner, "RETRY_BACKOFF", 0.0)
        runner = SweepRunner(max_workers=2)
        outcome = runner.run(trace, [killer, POINTS[0]])[0]

        # Every kill landed on a sacrificial worker, and the attempt
        # that stopped crashing completed the point in a worker.
        assert outcome.unwrap().total_time == expected
        assert outcome.retries == crashes
        assert not outcome.degraded
        assert len(os.listdir(attempts)) == crashes

        # The rung below cannot: the rescue runs in the sweep's own
        # process, so a host-killing attempt takes the sweep with it.
        # (Shown in a forked stand-in for the sweep process.)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        monkeypatch.setitem(globals(), "_CRASH_DIR", str(fresh))
        sweep = _Sweep(trace, False, "", SweepMetrics(), 0.0)
        stand_in = multiprocessing.get_context("fork").Process(
            target=runner._simulate_here, args=(sweep, outcome))
        stand_in.start()
        stand_in.join(timeout=60)
        assert stand_in.exitcode == 3

    # The rescue rung's own witness — every worker attempt dies and only
    # the in-process run completes the point — is
    # tests/test_service_resilience.py::TestDegradationRung.


# ----------------------------------------------------------------------
# Seeded failure interleavings through a fake dispatcher
# ----------------------------------------------------------------------
class _Script:
    """A seeded stream of fault actions, one per dispatch attempt."""

    def __init__(self, rng, weights):
        self.rng = rng
        self.actions = list(weights)
        self.weights = [weights[a] for a in self.actions]

        self._seq = 0

    def draw(self):
        return self.rng.choices(self.actions, self.weights)[0]

    def next_seq(self):
        self._seq += 1
        return self._seq


_TIMEOUT_REPLY = {"ok": False, "error": {
    "kind": "PointTimeout", "message": "scripted deadline overrun",
    "traceback": ""}}


class _FakePool:
    """In-process stand-in for a worker pool.

    A submission draws its fate from the script: Ctrl-C and SIGKILL
    strike at once; anything else stays pending until the fake
    :func:`_fake_wait` completes it, in a seeded order, by running the
    chunk here — or by dying ("crash"), which breaks a random subset of
    the pool's other in-flight futures and strands the rest until
    shutdown, as a real broken pool does.  Single-worker pools (the
    isolated retries) complete every submission at once.
    """

    def __init__(self, script, workers, traces, plans):
        worker_mod.init_worker(traces, plans)
        self.script = script
        self.eager = workers == 1
        self.pending = {}

    def submit(self, fn, payload):
        action = self.script.draw()
        if action == "interrupt":
            raise KeyboardInterrupt
        if action == "kill":
            raise _Killed
        future = Future()
        future.pool = self
        future.seq = self.script.next_seq()
        self.pending[future] = (fn, payload, action)
        if self.eager:
            self.complete(future)
        return future

    def complete(self, future):
        fn, payload, action = self.pending.pop(future)
        if action == "crash":
            future.set_exception(BrokenProcessPool("scripted worker death"))
            for other in sorted(self.pending, key=lambda f: f.seq):
                if self.script.rng.random() < 0.5:
                    del self.pending[other]
                    other.set_exception(BrokenProcessPool("pool broke"))
            return
        replies = fn(payload)
        if action == "timeout":
            replies[0] = dict(_TIMEOUT_REPLY)
        future.set_result(replies)

    def shutdown(self, wait=True, cancel_futures=False):
        for future in self.pending:
            future.cancel()
        self.pending.clear()


def _fake_wait(script):
    """``concurrent.futures.wait`` for fake futures: completes a seeded
    choice of the pending ones (at least one unless some already are)."""

    def wait(futures, return_when=None):
        pending = sorted((f for f in futures if not f.done()),
                         key=lambda f: f.seq)
        if pending and (len(pending) == len(futures)
                        or script.rng.random() < 0.5):
            for future in script.rng.sample(
                    pending, script.rng.randint(1, len(pending))):
                if not future.done():
                    future.pool.complete(future)
        done = {f for f in futures if f.done()}
        return done, set(futures) - done

    return wait


def _install_script(runner, monkeypatch, script):
    """Route every dispatch of *runner* through *script*: the fake pool
    for pooled runs, a scripted ``simulate_point`` for in-process ones."""
    runner._new_pool = lambda workers, traces, plans: _FakePool(
        script, workers, traces, plans)
    monkeypatch.setattr(runner_mod, "wait", _fake_wait(script))
    real = _REAL_SIMULATE_POINT

    def scripted(*args, **kwargs):
        action = script.draw()
        if action == "interrupt":
            raise KeyboardInterrupt
        if action == "kill":
            raise _Killed
        if action == "timeout":
            raise worker_mod.PointTimeoutError("scripted deadline overrun")
        return real(*args, **kwargs)   # "crash" has no in-process form

    if runner.max_workers <= 1:
        monkeypatch.setattr(worker_mod, "simulate_point", scripted)
    else:
        monkeypatch.setattr(worker_mod, "simulate_point", real)


def _check_settled(runner, outcomes, interrupted):
    """Lifecycle invariants after a run that returned or was Ctrl-C'd."""
    metrics = runner.last_metrics
    assert all(o.state in TERMINAL_STATES for o in outcomes)
    assert all((o.state is PointState.DONE) == o.ok for o in outcomes)
    assert metrics.completed + metrics.interrupted == len(outcomes)
    assert metrics.interrupted == sum(
        o.state is PointState.INTERRUPTED for o in outcomes)
    if not interrupted:
        assert metrics.interrupted == 0


def _faulty_run(trace, configs, journal_dir, rng, monkeypatch, resume,
                captured):
    workers = rng.choice([1, 2, 2, 3])
    breaker = rng.choice([None, CircuitBreaker(
        window=4, threshold=0.5, min_samples=2, probe_interval=2)])
    chunk = rng.choice([None, 1, 2, 3])
    monkeypatch.setattr(SweepRunner, "RETRY_BACKOFF", 0.0)
    runner = SweepRunner(max_workers=workers, journal=journal_dir,
                         resume=resume, breaker=breaker)
    captured.watch(runner, monkeypatch)
    if chunk is not None:
        monkeypatch.setattr(runner, "_chunk_size", lambda n, w: chunk)
    # Calm runs, crash storms (which reach the rescue rung and trip the
    # breaker) and timeout storms, all with rare interrupts and kills.
    script = _Script(rng, {"ok": 12, "crash": rng.choice([1, 3, 12]),
                           "timeout": rng.choice([0, 2, 8]),
                           "interrupt": 1, "kill": 1})
    _install_script(runner, monkeypatch, script)
    try:
        outcomes = runner.run(trace, configs)
    except KeyboardInterrupt:
        _check_settled(runner, captured.last_outcomes, interrupted=True)
        assert SweepJournal(journal_dir).read().records[-1]["t"] == "end"
        return
    except _Killed:
        # The process is gone: its open journal handle dies with it,
        # and (sometimes) the kill tore the final append in half.
        runner.journal.close()
        path = journal_dir / JOURNAL_NAME
        if path.exists() and rng.random() < 0.3:
            text = path.read_text()
            path.write_text(text[: len(text) - rng.randint(1, 40)])
        return
    _check_settled(runner, outcomes, interrupted=False)


class _Capture:
    """Keeps the outcome list a run builds (the only way to see an
    interrupted run's outcomes): every run hands it to
    ``_journal_open`` before any point moves, and the points change
    state in place."""

    def __init__(self):
        self.last_outcomes = []

    def watch(self, runner, monkeypatch):
        real = runner._journal_open

        def journal_open(sweep, outcomes):
            self.last_outcomes = outcomes
            return real(sweep, outcomes)

        monkeypatch.setattr(runner, "_journal_open", journal_open)


@pytest.mark.parametrize("seed", range(80))
def test_failure_interleavings_resume_to_serial_results(
        seed, trace, serial, tmp_path, monkeypatch, worker_state):
    rng = random.Random(seed)
    picked = sorted(rng.sample(range(len(POINTS)), rng.randint(3, 6)))
    configs = [POINTS[i] for i in picked]
    journal_dir = tmp_path / "journal"

    for attempt in range(rng.randint(1, 3)):
        _faulty_run(trace, configs, journal_dir, rng, monkeypatch,
                    resume=attempt > 0, captured=_Capture())

    # Whatever the interleaving left behind, a clean resume completes it.
    state = SweepJournal(journal_dir).read()
    runner = SweepRunner(max_workers=rng.choice([1, 2]),
                         journal=journal_dir, resume=True)
    _install_script(runner, monkeypatch, _Script(rng, {"ok": 1}))
    outcomes = runner.run(trace, configs)

    assert [_comparable(o.unwrap().to_dict()) for o in outcomes] == \
        [serial[i] for i in picked]
    assert {o.index for o in outcomes if o.resumed} == set(state.completed)
    assert all(o.state is PointState.DONE for o in outcomes)
    final = SweepJournal(journal_dir).read()
    assert set(final.completed) == set(range(len(configs)))
    assert final.records[-1]["t"] == "end"


# ----------------------------------------------------------------------
# A few interleavings on the real process pool
# ----------------------------------------------------------------------
_SCRIPT_DIR = None
_SCRIPT = {}


def _scripted_run_point(payload):
    """Act out the scripted fault for this point's n-th attempt (attempt
    counts live in files: every pool is a fresh set of forked
    processes)."""
    key = str(payload["config"]["link_bandwidth"]) + "-" + \
        str(payload["config"]["num_gpus"])
    attempts = [n for n in os.listdir(_SCRIPT_DIR) if n.startswith(key + ".")]
    open(os.path.join(_SCRIPT_DIR, f"{key}.{len(attempts)}"), "w").close()
    plan = _SCRIPT.get(key, [])
    action = plan[len(attempts)] if len(attempts) < len(plan) else "ok"
    if action == "crash":
        os._exit(3)
    if action == "timeout":
        return dict(_TIMEOUT_REPLY)
    return _REAL_RUN_POINT(payload)


class _InterruptAt:
    def __init__(self, at):
        self.at = at
        self.seen = 0

    def __call__(self, outcome, progress):
        self.seen += 1
        if self.seen == self.at:
            raise KeyboardInterrupt


@pytest.mark.parametrize("seed", range(3))
def test_real_pool_interleavings_resume_to_serial_results(
        seed, trace, serial, tmp_path, monkeypatch):
    rng = random.Random(1000 + seed)
    picked = sorted(rng.sample(range(len(POINTS)), 5))
    configs = [POINTS[i] for i in picked]
    script = {}
    for cfg in configs:
        key = f"{cfg.link_bandwidth}-{cfg.num_gpus}"
        script[key] = [rng.choice(["ok", "ok", "crash", "timeout"])
                       for _ in range(rng.randint(0, 3))]
    script_dir = tmp_path / "attempts"
    script_dir.mkdir()
    monkeypatch.setitem(globals(), "_SCRIPT_DIR", str(script_dir))
    monkeypatch.setitem(globals(), "_SCRIPT", script)
    monkeypatch.setattr(worker_mod, "run_point", _scripted_run_point)
    journal_dir = tmp_path / "journal"

    observers = [_InterruptAt(rng.randint(1, 4))] if seed != 0 else []
    chunk = rng.choice([1, 2])
    monkeypatch.setattr(SweepRunner, "RETRY_BACKOFF", 0.0)
    runner = SweepRunner(max_workers=2, journal=journal_dir,
                         observers=observers)
    monkeypatch.setattr(runner, "_chunk_size", lambda n, w: chunk)
    try:
        outcomes = runner.run(trace, configs)
        _check_settled(runner, outcomes, interrupted=False)
    except KeyboardInterrupt:
        pass

    monkeypatch.setattr(worker_mod, "run_point", _REAL_RUN_POINT)
    state = SweepJournal(journal_dir).read()
    resumed = SweepRunner(max_workers=2, journal=journal_dir, resume=True)
    outcomes = resumed.run(trace, configs)
    assert [_comparable(o.unwrap().to_dict()) for o in outcomes] == \
        [serial[i] for i in picked]
    assert {o.index for o in outcomes if o.resumed} == set(state.completed)
