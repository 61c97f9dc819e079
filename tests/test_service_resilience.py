"""Resilience of the sweep service itself: worker crashes, cache
corruption and concurrent eviction, deadlines, and crash-safe resume.

The contract under test: a sweep survives the death of a worker process
— the killed point (and only it) degrades to ``SweepError
(kind="WorkerCrashed")`` after bounded isolated retries while every other
point still returns a bit-identical result; the on-disk cache shrugs off
truncated entries and concurrent unlinks; per-point deadlines arm even
where ``SIGALRM`` cannot and trip cooperatively mid-simulation; and a
journaled sweep killed with ``SIGKILL`` mid-wave resumes bit-identically,
even when the kill tore the journal's final line.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import HEARTBEAT_EVERY, TrioSim
from repro.faults import FaultSpec, Straggler
from repro.gpus.specs import get_gpu
from repro.service import worker as worker_mod
from repro.service.cache import ResultCache, trace_digest
from repro.service.journal import JOURNAL_NAME, SweepJournal
from repro.service.runner import HOOK_SWEEP_POINT, SweepRunner
from repro.trace.trace import Trace
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A40")).trace(get_model("resnet18"), 16)


def _config(**overrides):
    base = dict(parallelism="ddp", num_gpus=4, link_bandwidth=25e9)
    base.update(overrides)
    return SimulationConfig(**base)


class _PointHook:
    def __init__(self):
        self.outcomes = []

    def func(self, ctx):
        if ctx.pos == HOOK_SWEEP_POINT:
            self.outcomes.append(ctx.item)


# ----------------------------------------------------------------------
# Worker crashes
# ----------------------------------------------------------------------
class TestWorkerCrash:
    def test_killed_worker_fails_one_point_not_the_sweep(
            self, trace, monkeypatch):
        configs = [
            _config(num_gpus=2),
            _config(num_gpus=2, faults=FaultSpec(chaos_kill_at=1e-4)),
            _config(num_gpus=4),
        ]
        sequential = {
            i: TrioSim(trace, cfg).run().total_time
            for i, cfg in enumerate(configs) if cfg.faults is None
        }
        hook = _PointHook()
        monkeypatch.setattr(SweepRunner, "RETRY_BACKOFF", 0.001)
        runner = SweepRunner(max_workers=2, hooks=[hook])
        outcomes = runner.run(trace, configs)

        crashed = outcomes[1]
        assert not crashed.ok
        assert crashed.error.kind == "WorkerCrashed"
        assert crashed.retries == SweepRunner.MAX_CRASH_RETRIES
        for i, expected in sequential.items():
            assert outcomes[i].ok
            assert outcomes[i].unwrap().total_time == expected

        metrics = runner.last_metrics
        assert metrics.worker_crashes == 1
        assert metrics.errors == 1
        assert metrics.retries >= SweepRunner.MAX_CRASH_RETRIES
        assert metrics.detail()["worker_crashes"] == 1
        # The point hook saw every outcome, retry counts included.
        assert len(hook.outcomes) == 3
        assert {o.index: o.retries for o in hook.outcomes}[1] \
            == SweepRunner.MAX_CRASH_RETRIES

    def test_retry_backoff_is_seeded_and_bounded(self, monkeypatch):
        import random

        monkeypatch.setattr(SweepRunner, "RETRY_SEED", 5)
        monkeypatch.setattr(SweepRunner, "RETRY_BACKOFF", 10.0)
        runner = SweepRunner(max_workers=1)
        delays_a = [runner._backoff_delay(random.Random(5), a)
                    for a in range(4)]
        delays_b = [runner._backoff_delay(random.Random(5), a)
                    for a in range(4)]
        assert delays_a == delays_b
        assert all(0.0 < d <= SweepRunner.MAX_BACKOFF for d in delays_a)
        assert delays_a[-1] == SweepRunner.MAX_BACKOFF  # cap engages


# ----------------------------------------------------------------------
# Faulted points across execution modes
# ----------------------------------------------------------------------
class TestFaultedSweepDeterminism:
    def test_parallel_and_cache_replay_match_in_process(self, trace, tmp_path):
        spec = FaultSpec(
            stragglers=(Straggler("gpu1", 0.0, 0.005, 3.0),),
            checkpoint_interval=0.002, checkpoint_cost=1e-4,
            restore_cost=2e-4,
        )
        config = _config(faults=spec)
        in_process = TrioSim(trace, config).run().total_time

        runner = SweepRunner(max_workers=2, cache=str(tmp_path))
        first = runner.run(trace, [config])[0]
        assert first.unwrap().total_time == in_process
        assert not first.cached

        replayed = SweepRunner(max_workers=2, cache=str(tmp_path)) \
            .run(trace, [config])[0]
        assert replayed.cached
        assert replayed.unwrap().total_time == in_process


# ----------------------------------------------------------------------
# Cache corruption, eviction, races
# ----------------------------------------------------------------------
class TestCacheResilience:
    def _store_one(self, trace, tmp_path, config=None):
        cache = ResultCache(tmp_path)
        config = config or _config()
        key = cache.point_key(trace_digest(trace), config)
        cache.store(key, TrioSim(trace, config).run())
        return cache, key

    def test_truncated_entry_is_a_miss_and_evicted(self, trace, tmp_path):
        cache, key = self._store_one(trace, tmp_path)
        path = cache._path(key)
        path.write_text(path.read_text()[: 40])  # truncate mid-JSON
        assert cache.load(key) is None
        assert cache.misses == 1
        assert not path.exists()

    def test_corrupt_entry_recomputed_through_runner(self, trace, tmp_path):
        config = _config()
        expected = TrioSim(trace, config).run().total_time
        SweepRunner(max_workers=1, cache=str(tmp_path)).run(trace, [config])
        (entry,) = [p for p in tmp_path.iterdir() if p.suffix == ".json"]
        entry.write_text("{not json")
        outcome = SweepRunner(max_workers=1, cache=str(tmp_path)) \
            .run(trace, [config])[0]
        assert not outcome.cached
        assert outcome.unwrap().total_time == expected

    def test_concurrently_unlinked_entry_is_a_miss(self, trace, tmp_path):
        cache, key = self._store_one(trace, tmp_path)
        cache._path(key).unlink()
        assert cache.load(key) is None
        assert cache.misses == 1

    def test_transient_oserror_gets_one_retry(self, trace, tmp_path):
        cache, key = self._store_one(trace, tmp_path)
        real_path = cache._path(key)
        text = real_path.read_text()

        class Flaky:
            calls = 0

            def read_text(self):
                Flaky.calls += 1
                if Flaky.calls == 1:
                    raise OSError("transient")
                return text

        cache._path = lambda k: Flaky()  # type: ignore[assignment]
        assert cache.load(key) is not None
        assert Flaky.calls == 2
        assert cache.hits == 1

    def test_prune_by_max_entries_oldest_first(self, trace, tmp_path):
        cache = ResultCache(tmp_path)
        keys = []
        for n in (2, 4, 8):
            config = _config(num_gpus=n)
            key = cache.point_key(trace_digest(trace), config)
            cache.store(key, TrioSim(trace, config).run())
            keys.append(key)
        # Backdate the first two entries so mtime ordering is unambiguous.
        for age, key in ((200, keys[0]), (100, keys[1])):
            path = cache._path(key)
            os.utime(path, (path.stat().st_mtime - age,) * 2)

        assert cache.prune(max_entries=2) == 1
        assert cache.load(keys[0]) is None     # oldest evicted
        assert cache.load(keys[2]) is not None

    def test_prune_by_max_age(self, trace, tmp_path):
        cache, key = self._store_one(trace, tmp_path)
        path = cache._path(key)
        os.utime(path, (path.stat().st_mtime - 3600,) * 2)
        assert cache.prune(max_age=60) == 1
        assert len(cache) == 0
        assert cache.prune(max_age=60) == 0

    def test_prune_validates_and_handles_missing_dir(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.prune(max_entries=0) == 0
        with pytest.raises(ValueError):
            cache.prune(max_entries=-1)
        with pytest.raises(ValueError):
            cache.prune(max_age=-1.0)


# ----------------------------------------------------------------------
# Thread-based deadline fallback
# ----------------------------------------------------------------------
class TestWatchdogDeadline:
    def test_fires_off_the_main_thread(self):
        caught = []

        def body():
            try:
                with worker_mod.deadline(0.05):
                    deadline_hit = threading.Event()
                    while not deadline_hit.wait(0.001):
                        pass  # spin in bytecode so the async exc lands
            except worker_mod.PointTimeoutError:
                caught.append(True)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10.0)
        assert caught == [True]

    def test_cancel_beats_the_timer(self):
        done = []

        def body():
            with worker_mod.deadline(30.0):
                done.append(True)

        thread = threading.Thread(target=body)
        thread.start()
        thread.join(timeout=10.0)
        assert done == [True]
        assert threading.active_count() < 10  # timer thread cancelled

    def test_falsy_deadline_is_noop(self):
        with worker_mod.deadline(None):
            pass
        with worker_mod.deadline(0):
            pass


# ----------------------------------------------------------------------
# Soft (cooperative) deadlines
# ----------------------------------------------------------------------
class TestSoftDeadline:
    def test_doomed_point_times_out_with_partial_progress(self, trace):
        doomed = _config(num_gpus=2, deadline_soft=1e-7)
        healthy = [_config(num_gpus=2), _config(num_gpus=4)]
        sequential = [TrioSim(trace, cfg).run().total_time
                      for cfg in healthy]

        runner = SweepRunner(max_workers=2)
        outcomes = runner.run(trace, [healthy[0], doomed, healthy[1]])

        timed_out = outcomes[1]
        assert not timed_out.ok
        assert timed_out.error.kind == "PointTimeout"
        # The heartbeat ships partial progress: how far the simulation
        # got before the budget expired.
        detail = timed_out.error.detail
        assert detail["events"] >= HEARTBEAT_EVERY
        assert detail["simulated_time"] >= 0.0
        assert detail["elapsed"] >= 0.0
        # The wave was not stalled: the other points still completed,
        # bit-identically.
        assert [outcomes[0].unwrap().total_time,
                outcomes[2].unwrap().total_time] == sequential
        assert runner.last_metrics.timeouts == 1
        assert runner.last_metrics.detail()["timeouts"] == 1

    def test_sweep_wide_soft_deadline_applies_to_every_point(self, trace):
        runner = SweepRunner(max_workers=1, deadline_soft=1e-7)
        outcomes = runner.run(trace, [_config(num_gpus=2),
                                      _config(num_gpus=4)])
        assert all(o.error is not None and o.error.kind == "PointTimeout"
                   for o in outcomes)
        assert runner.last_metrics.timeouts == 2

    def test_per_config_deadline_overrides_sweep_wide(self, trace):
        # A generous per-config budget rescues a point from an
        # impossible sweep-wide default.
        rescued = _config(num_gpus=2, deadline_soft=300.0)
        runner = SweepRunner(max_workers=1, deadline_soft=1e-7)
        outcomes = runner.run(trace, [rescued, _config(num_gpus=4)])
        assert outcomes[0].ok
        assert outcomes[1].error.kind == "PointTimeout"

    def test_timeout_error_serializes_detail(self, trace):
        outcome = SweepRunner(max_workers=1).run(
            trace, [_config(num_gpus=2, deadline_soft=1e-7)])[0]
        data = outcome.to_dict()
        assert data["error"]["kind"] == "PointTimeout"
        assert data["error"]["detail"]["events"] >= 1
        json.dumps(data)


# ----------------------------------------------------------------------
# Graceful degradation: the in-process rescue rung
# ----------------------------------------------------------------------
def _exit_run_point(payload):
    """A run_point stand-in that kills its worker outright (fork ships
    this patched module state into the pool children)."""
    os._exit(3)


class TestDegradationRung:
    def test_crash_storm_recovers_in_process(self, trace, monkeypatch):
        monkeypatch.setattr(worker_mod, "run_point", _exit_run_point)
        configs = [_config(num_gpus=2), _config(num_gpus=4)]
        sequential = [TrioSim(trace, cfg).run().total_time
                      for cfg in configs]

        monkeypatch.setattr(SweepRunner, "RETRY_BACKOFF", 0.001)
        runner = SweepRunner(max_workers=2)
        outcomes = runner.run(trace, configs)

        # Every worker attempt died, yet the sweep still produced real,
        # bit-identical results via the in-process rescue rung.
        assert [o.unwrap().total_time for o in outcomes] == sequential
        assert all(o.degraded for o in outcomes)
        assert all(o.retries == SweepRunner.MAX_CRASH_RETRIES
                   for o in outcomes)
        metrics = runner.last_metrics
        assert metrics.degraded_recoveries == 2
        assert metrics.errors == 0
        assert metrics.detail()["degraded_recoveries"] == 2


# ----------------------------------------------------------------------
# KeyboardInterrupt containment
# ----------------------------------------------------------------------
class _InterruptHook:
    """Raises KeyboardInterrupt out of the first sweep_point hook —
    the same re-entry path a real Ctrl-C takes mid-wave."""

    def __init__(self):
        self.seen = 0

    def func(self, ctx):
        if ctx.pos == HOOK_SWEEP_POINT:
            self.seen += 1
            if self.seen == 1:
                raise KeyboardInterrupt


class TestKeyboardInterrupt:
    def test_inproc_interrupt_journals_the_unfinished_points(
            self, trace, tmp_path):
        configs = [_config(num_gpus=n) for n in (2, 4, 8)]
        runner = SweepRunner(max_workers=1, journal=tmp_path,
                             hooks=[_InterruptHook()])
        with pytest.raises(KeyboardInterrupt):
            runner.run(trace, configs)

        metrics = runner.last_metrics
        assert metrics.completed == 1
        assert metrics.interrupted == 2
        state = SweepJournal(tmp_path).read()
        assert len(state.interrupted) == 2
        assert state.records[-1]["t"] == "end"   # clean journal tail

        # The journal makes the interrupt recoverable: resuming replays
        # the completed point and re-runs the interrupted ones.
        resumed_runner = SweepRunner(max_workers=1, journal=tmp_path,
                                     resume=True)
        outcomes = resumed_runner.run(trace, configs)
        sequential = [TrioSim(trace, cfg).run().total_time
                      for cfg in configs]
        assert [o.unwrap().total_time for o in outcomes] == sequential
        assert [o.resumed for o in outcomes] == [True, False, False]

    def test_parallel_interrupt_leaks_no_workers(self, trace):
        configs = [_config(num_gpus=n) for n in (2, 4, 2, 4)]
        runner = SweepRunner(max_workers=2, hooks=[_InterruptHook()])
        with pytest.raises(KeyboardInterrupt):
            runner.run(trace, configs)

        metrics = runner.last_metrics
        assert metrics.completed == 1
        assert metrics.interrupted == 3
        # The wave shut its pool down before re-raising: no orphaned
        # worker processes survive the interrupt.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children():
            assert time.monotonic() < deadline, \
                "worker processes leaked after KeyboardInterrupt"
            time.sleep(0.05)


# ----------------------------------------------------------------------
# Kill -9 and resume
# ----------------------------------------------------------------------
_KILLABLE_SWEEP = """\
import sys, time
trace_path, journal_dir = sys.argv[1], sys.argv[2]

import repro.service.worker as w
_original = w.simulate_point

def slow_simulate(*args, **kwargs):
    time.sleep(0.25)   # stretch the wave so the kill lands mid-sweep
    return _original(*args, **kwargs)

w.simulate_point = slow_simulate

from repro.core.config import SimulationConfig
from repro.service.runner import SweepRunner
from repro.trace.trace import Trace

trace = Trace.load(trace_path)
configs = [
    SimulationConfig(parallelism="ddp", num_gpus=n, link_bandwidth=bw)
    for n in (2, 4) for bw in (25e9, 50e9, 100e9, 200e9)
]
SweepRunner(max_workers=2, journal=journal_dir).run(trace, configs)
"""


def _sweep_configs():
    return [
        SimulationConfig(parallelism="ddp", num_gpus=n, link_bandwidth=bw)
        for n in (2, 4) for bw in (25e9, 50e9, 100e9, 200e9)
    ]


def _kill_mid_sweep(trace, tmp_path, min_done=3):
    """Launch a journaled 8-point sweep in a subprocess and SIGKILL its
    whole process group once *min_done* points are durably journaled.
    Returns the journal directory."""
    trace_path = tmp_path / "trace.json"
    trace.save(trace_path)
    journal_dir = tmp_path / "journal"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH", "")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLABLE_SWEEP,
         str(trace_path), str(journal_dir)],
        env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    journal_path = journal_dir / JOURNAL_NAME
    deadline = time.monotonic() + 120.0
    try:
        while True:
            if time.monotonic() > deadline:
                raise AssertionError("sweep subprocess never reached "
                                     f"{min_done} journaled points")
            if proc.poll() is not None:
                _out, err = proc.communicate()
                raise AssertionError(
                    f"sweep subprocess exited early ({proc.returncode}):\n"
                    f"{err}")
            if journal_path.exists():
                done = journal_path.read_text().count('"t": "done"')
                if done >= min_done:
                    break
            time.sleep(0.01)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        if proc.stdout:
            proc.stdout.close()
        if proc.stderr:
            proc.stderr.close()
    return journal_dir


class TestKillAndResume:
    def test_sigkill_mid_wave_resumes_bit_identically(self, trace, tmp_path):
        configs = _sweep_configs()
        journal_dir = _kill_mid_sweep(trace, tmp_path)

        state = SweepJournal(journal_dir).read()
        done_before = set(state.completed)
        assert done_before, "kill landed before any point completed"
        assert len(done_before) < len(configs), \
            "kill landed after the sweep finished; nothing to resume"

        loaded = Trace.load(tmp_path / "trace.json")
        runner = SweepRunner(max_workers=2, journal=journal_dir,
                             resume=True)
        outcomes = runner.run(loaded, configs)

        # Bit-identical to an uninterrupted sequential run, replayed
        # points and re-dispatched points alike.
        sequential = [TrioSim(loaded, cfg).run().total_time
                      for cfg in configs]
        assert [o.unwrap().total_time for o in outcomes] == sequential
        # Exactly the journaled points were replayed; the rest re-ran.
        assert {o.index for o in outcomes if o.resumed} == done_before
        assert runner.last_metrics.resumed == len(done_before)

        # Per-point cache keys agree between the dead run's journal and
        # a fresh fingerprint of the same sweep (key-for-key identity).
        expected_keys = {
            i: ResultCache.point_key(trace_digest(loaded), cfg, False)
            for i, cfg in enumerate(configs)
        }
        for i in done_before:
            assert state.completed[i]["key"] == expected_keys[i]

    def test_torn_final_line_is_recovered_on_resume(self, trace, tmp_path):
        configs = _sweep_configs()
        journal_dir = _kill_mid_sweep(trace, tmp_path)
        journal_path = journal_dir / JOURNAL_NAME

        # Tear the journal the way a crash mid-append would: truncate
        # the last record partway through its JSON.
        text = journal_path.read_text()
        lines = text.splitlines(keepends=True)
        last_done_at = max(i for i, line in enumerate(lines)
                           if '"t": "done"' in line)
        torn = "".join(lines[:last_done_at]) + \
            lines[last_done_at][: len(lines[last_done_at]) // 2]
        journal_path.write_text(torn)

        state = SweepJournal(journal_dir).read()
        assert state.torn_lines == 1
        surviving = set(state.completed)
        torn_index = json.loads(lines[last_done_at])["i"]
        assert torn_index not in surviving

        loaded = Trace.load(tmp_path / "trace.json")
        runner = SweepRunner(max_workers=2, journal=journal_dir,
                             resume=True)
        outcomes = runner.run(loaded, configs)

        # The torn point was dropped from replay and re-simulated; the
        # merged results are still bit-identical to an unbroken run.
        sequential = [TrioSim(loaded, cfg).run().total_time
                      for cfg in configs]
        assert [o.unwrap().total_time for o in outcomes] == sequential
        assert not outcomes[torn_index].resumed
        assert {o.index for o in outcomes if o.resumed} == surviving
