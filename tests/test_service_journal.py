"""The write-ahead sweep journal and the dispatch circuit breaker.

Contracts under test: every record appended to the journal is durably
readable back (torn trailing lines are dropped, never fatal); a resumed
sweep replays exactly the completed points, bit-identically, and refuses
to replay a journal written for different work (rule ``SV001``); and the
circuit breaker trips, fast-fails, probes half-open, and recovers on
deterministic count-based rules.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import SimulationConfig
from repro.core.simulator import TrioSim
from repro.gpus.specs import get_gpu
from repro.service import (
    CircuitBreaker,
    JournalMismatchError,
    ResultCache,
    SweepJournal,
    SweepRunner,
    SweepSpec,
    check_resume,
    sweep_fingerprint,
    trace_digest,
)
from repro.service.journal import JOURNAL_NAME
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


@pytest.fixture(scope="module")
def trace():
    return Tracer(get_gpu("A40")).trace(get_model("resnet18"), 16)


def _configs(*gpu_counts):
    return [SimulationConfig(parallelism="ddp", num_gpus=n,
                             link_bandwidth=25e9) for n in gpu_counts]


# ----------------------------------------------------------------------
# Journal file format and recovery
# ----------------------------------------------------------------------
class TestJournalFile:
    def test_append_read_roundtrip(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.begin("fp", "trace", total=2, record_timeline=False)
        journal.dispatch(0, "k0", "a")
        journal.done(0, "k0", {"wall_time": 1.5}, cached=False)
        journal.fail(1, "k1", {"kind": "PointTimeout", "message": "m",
                               "traceback": ""}, kind="PointTimeout")
        journal.close()

        state = SweepJournal(tmp_path).read()
        assert state.torn_lines == 0
        assert state.fingerprint == "fp"
        assert set(state.completed) == {0}
        assert state.completed[0]["wall"] == 1.5
        assert set(state.failed) == {1}
        assert state.failed[1]["kind"] == "PointTimeout"
        assert state.in_flight == set()

    def test_dispatch_without_terminal_record_is_in_flight(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.begin("fp", "trace", total=2, record_timeline=False)
        journal.dispatch(0, "k0")
        journal.dispatch(1, "k1")
        journal.done(1, "k1", {"wall_time": 0.1})
        journal.close()
        state = journal.read()
        assert state.in_flight == {0}

    def test_torn_trailing_line_is_dropped(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.begin("fp", "trace", total=1, record_timeline=False)
        journal.done(0, "k0", {"wall_time": 0.1})
        journal.close()
        path = tmp_path / JOURNAL_NAME
        text = path.read_text()
        # SIGKILL mid-append: the final record is half-written.
        path.write_text(text[: len(text) - 20])

        state = journal.read()
        assert state.torn_lines == 1
        assert state.fingerprint == "fp"
        assert state.completed == {}

    def test_non_dict_and_garbage_lines_are_tolerated(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.begin("fp", "trace", total=1, record_timeline=False)
        journal.close()
        path = tmp_path / JOURNAL_NAME
        with open(path, "a") as handle:
            handle.write("[1, 2, 3]\n")      # parses, not a record
            handle.write("{\"t\": \"done\", \"i\": 0, \"key\": \"k\", "
                         "\"wall\": 0.1, \"cached\": false, "
                         "\"result\": {}}\n")
            handle.write("}}}garbage\n")
        state = journal.read()
        assert state.torn_lines == 2
        assert set(state.completed) == {0}

    def test_missing_file_reads_empty(self, tmp_path):
        state = SweepJournal(tmp_path / "nowhere").read()
        assert state.records == []
        assert state.fingerprint is None

    def test_records_are_fsyncd_one_per_line(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.begin("fp", "trace", total=1, record_timeline=False)
        journal.dispatch(0, "k0")
        # Do NOT close: the lines must already be durable on disk.
        lines = (tmp_path / JOURNAL_NAME).read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)
        journal.close()

    def test_latest_done_record_wins(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.done(0, "k0", {"wall_time": 0.1, "marker": "old"})
        journal.done(0, "k0", {"wall_time": 0.2, "marker": "new"})
        journal.close()
        state = journal.read()
        assert state.completed[0]["result"]["marker"] == "new"

    def test_recovery_views_scope_to_the_last_begin(self, tmp_path):
        # A fresh (non-resume) sweep pointed at an existing journal
        # directory appends its own begin record; every recovery view
        # must then ignore the earlier run's records entirely.
        journal = SweepJournal(tmp_path)
        journal.begin("fpA", "trace", total=2, record_timeline=False)
        journal.dispatch(0, "a0")
        journal.done(0, "a0", {"wall_time": 9.0})
        journal.fail(1, "a1", {"kind": "PointTimeout", "message": "m",
                               "traceback": ""}, kind="PointTimeout")
        journal.begin("fpB", "trace", total=2, record_timeline=False)
        journal.dispatch(0, "b0")
        journal.close()

        state = journal.read()
        assert state.fingerprint == "fpB"
        assert state.completed == {}       # run A's done is out of scope
        assert state.failed == {}
        assert state.in_flight == {0}      # run B's own dispatch only

    def test_resume_markers_do_not_reset_the_run_scope(self, tmp_path):
        # resume continues a run: records before the marker (but after
        # the begin) stay visible.
        journal = SweepJournal(tmp_path)
        journal.begin("fp", "trace", total=2, record_timeline=False)
        journal.done(0, "k0", {"wall_time": 0.5})
        journal.resume_marker("fp", replayed=1, remaining=1)
        journal.done(1, "k1", {"wall_time": 0.7})
        journal.close()
        state = journal.read()
        assert state.fingerprint == "fp"
        assert set(state.completed) == {0, 1}


# ----------------------------------------------------------------------
# Resume admission (SV rules)
# ----------------------------------------------------------------------
class TestCheckResume:
    def _state(self, tmp_path, fingerprint="fp", walls=()):
        journal = SweepJournal(tmp_path)
        journal.begin(fingerprint, "trace", total=len(walls) or 1,
                      record_timeline=False)
        for i, wall in enumerate(walls):
            journal.done(i, f"k{i}", {"wall_time": wall})
        journal.close()
        return journal.read()

    def test_matching_fingerprint_is_clean(self, tmp_path):
        state = self._state(tmp_path)
        report = check_resume(state, "fp")
        assert not report.has_errors
        assert len(report) == 0

    def test_mismatch_emits_sv001(self, tmp_path):
        state = self._state(tmp_path, fingerprint="other")
        report = check_resume(state, "fp")
        assert report.has_errors
        (finding,) = list(report)
        assert finding.rule == "SV001"

    def test_empty_journal_emits_sv001(self, tmp_path):
        state = SweepJournal(tmp_path / "empty").read()
        report = check_resume(state, "fp")
        assert report.has_errors
        assert list(report)[0].rule == "SV001"

    def test_short_deadline_emits_sv002_warning(self, tmp_path):
        state = self._state(tmp_path, walls=(0.5, 2.0))
        report = check_resume(state, "fp", deadline_hard=1.0)
        assert not report.has_errors
        (finding,) = list(report)
        assert finding.rule == "SV002"
        assert finding.severity == "warning"

    def test_adequate_deadline_is_clean(self, tmp_path):
        state = self._state(tmp_path, walls=(0.5, 2.0))
        assert len(check_resume(state, "fp", deadline_hard=3.0)) == 0

    def test_cached_walls_do_not_count(self, tmp_path):
        journal = SweepJournal(tmp_path)
        journal.begin("fp", "trace", total=1, record_timeline=False)
        journal.done(0, "k0", {"wall_time": 99.0}, cached=True)
        journal.close()
        report = check_resume(journal.read(), "fp", deadline_hard=1.0)
        assert len(report) == 0

    def test_sv002_ignores_earlier_runs_walls(self, tmp_path):
        # A slow point from a previous run in the same journal file must
        # not trigger (or suppress) the deadline warning for this run.
        journal = SweepJournal(tmp_path)
        journal.begin("old", "trace", total=1, record_timeline=False)
        journal.done(0, "k0", {"wall_time": 99.0})
        journal.begin("fp", "trace", total=1, record_timeline=False)
        journal.done(0, "k0", {"wall_time": 0.1})
        journal.close()
        assert len(check_resume(journal.read(), "fp",
                                deadline_hard=1.0)) == 0

    def test_example_sweep_fingerprint_pinned(self):
        # A journal written for examples/ddp_sweep.json resumes only while
        # this fingerprint (trace digest, point keys, order) holds.
        spec = SweepSpec.load(EXAMPLES / "ddp_sweep.json")
        base = trace_digest(spec.load_trace())
        keys = [ResultCache.point_key(base, cfg) for _, cfg in spec.expand()]
        assert sweep_fingerprint(base, keys, False) == (
            "23fd9005233f434d4e06ba98044a13eba1cca81806da64ea1f48aba28e9e752b")

    def test_fingerprint_is_order_sensitive(self):
        a = sweep_fingerprint("t", ["k1", "k2"], False)
        b = sweep_fingerprint("t", ["k2", "k1"], False)
        c = sweep_fingerprint("t", ["k1", "k2"], True)
        assert len({a, b, c}) == 3


# ----------------------------------------------------------------------
# End-to-end journaled sweeps
# ----------------------------------------------------------------------
class TestJournaledSweep:
    def test_journal_records_every_point(self, trace, tmp_path):
        configs = _configs(2, 4)
        runner = SweepRunner(max_workers=1, journal=tmp_path)
        outcomes = runner.run(trace, configs)
        assert all(o.ok for o in outcomes)
        state = SweepJournal(tmp_path).read()
        assert set(state.completed) == {0, 1}
        # Write-ahead: each point's dispatch precedes its done record.
        kinds = [r["t"] for r in state.records]
        for i in (0, 1):
            dispatch_at = next(n for n, r in enumerate(state.records)
                               if r["t"] == "dispatch" and r["i"] == i)
            done_at = next(n for n, r in enumerate(state.records)
                           if r["t"] == "done" and r["i"] == i)
            assert dispatch_at < done_at
        assert kinds[0] == "begin"
        assert kinds[-1] == "end"

    def test_resume_replays_bit_identically(self, trace, tmp_path):
        configs = _configs(2, 4, 8)
        baseline = SweepRunner(max_workers=1).run(trace, configs)
        first = SweepRunner(max_workers=1, journal=tmp_path) \
            .run(trace, configs)
        resumed_runner = SweepRunner(max_workers=1, journal=tmp_path,
                                     resume=True)
        resumed = resumed_runner.run(trace, configs)
        for base, orig, replay in zip(baseline, first, resumed):
            assert replay.resumed
            assert replay.result.to_dict() == orig.result.to_dict()
            assert replay.result.total_time == base.result.total_time
        metrics = resumed_runner.last_metrics
        assert metrics.resumed == 3
        assert metrics.completed == 3
        assert metrics.cache_hits == 0      # replay is not a cache hit
        assert metrics.fresh_events == 0    # and not fresh simulation

    def test_partial_journal_redispatches_only_the_remainder(
            self, trace, tmp_path):
        configs = _configs(2, 4, 8)
        SweepRunner(max_workers=1, journal=tmp_path).run(trace, configs)
        # Forge a crash: drop point 2's done record from the journal.
        path = tmp_path / JOURNAL_NAME
        kept = [line for line in path.read_text().splitlines()
                if not (line and json.loads(line).get("t") == "done"
                        and json.loads(line).get("i") == 2)]
        path.write_text("\n".join(kept) + "\n")

        runner = SweepRunner(max_workers=1, journal=tmp_path, resume=True)
        outcomes = runner.run(trace, configs)
        assert [o.resumed for o in outcomes] == [True, True, False]
        expected = TrioSim(trace, configs[2]).run().total_time
        assert outcomes[2].unwrap().total_time == expected
        assert runner.last_metrics.resumed == 2

    def test_mismatched_journal_refuses_to_resume(self, trace, tmp_path):
        SweepRunner(max_workers=1, journal=tmp_path) \
            .run(trace, _configs(2, 4))
        with pytest.raises(JournalMismatchError) as excinfo:
            SweepRunner(max_workers=1, journal=tmp_path, resume=True) \
                .run(trace, _configs(2, 8))
        assert excinfo.value.report.has_errors
        assert list(excinfo.value.report)[0].rule == "SV001"

    def test_resume_without_existing_journal_starts_fresh(
            self, trace, tmp_path):
        runner = SweepRunner(max_workers=1, journal=tmp_path, resume=True)
        outcomes = runner.run(trace, _configs(2))
        assert outcomes[0].ok and not outcomes[0].resumed

    def test_failed_points_are_redispatched_on_resume(self, trace, tmp_path):
        # A config that lints clean but times out leaves a fail record;
        # resuming re-dispatches it (here, with the deadline lifted).
        soft = [SimulationConfig(parallelism="ddp", num_gpus=2,
                                 link_bandwidth=25e9, deadline_soft=1e-7)]
        first = SweepRunner(max_workers=1, journal=tmp_path) \
            .run(trace, soft)[0]
        assert first.error is not None
        assert first.error.kind == "PointTimeout"

        lifted = [SimulationConfig(parallelism="ddp", num_gpus=2,
                                   link_bandwidth=25e9)]
        # Same cache key (deadlines are execution policy), so the
        # fingerprint matches and the failed point simply re-runs.
        second = SweepRunner(max_workers=1, journal=tmp_path, resume=True) \
            .run(trace, lifted)[0]
        assert second.ok and not second.resumed

    def test_resume_never_replays_an_earlier_runs_results(
            self, trace, tmp_path):
        # Sweep A fills the journal; sweep B (different points) is then
        # run fresh into the same directory and "killed" right after
        # its begin record.  Resuming B passes the fingerprint check
        # (the last begin is B's) but must re-run B's points rather
        # than replaying A's results at matching indices.
        SweepRunner(max_workers=1, journal=tmp_path) \
            .run(trace, _configs(2, 4))
        sweep_b = _configs(8, 16)
        SweepRunner(max_workers=1, journal=tmp_path).run(trace, sweep_b)
        path = tmp_path / JOURNAL_NAME
        lines = path.read_text().splitlines()
        last_begin = max(n for n, line in enumerate(lines)
                         if json.loads(line).get("t") == "begin")
        path.write_text("\n".join(lines[:last_begin + 1]) + "\n")

        runner = SweepRunner(max_workers=1, journal=tmp_path, resume=True)
        outcomes = runner.run(trace, sweep_b)
        assert runner.last_metrics.resumed == 0
        assert all(o.ok and not o.resumed for o in outcomes)
        for outcome, config in zip(outcomes, sweep_b):
            expected = TrioSim(trace, config).run().total_time
            assert outcome.result.total_time == expected

    def test_done_record_with_foreign_key_is_not_replayed(
            self, trace, tmp_path):
        configs = _configs(2, 4)
        SweepRunner(max_workers=1, journal=tmp_path).run(trace, configs)
        path = tmp_path / JOURNAL_NAME
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("t") == "done" and record["i"] == 1:
                record["key"] = "not-this-points-key"
                line = json.dumps(record, sort_keys=True)
            lines.append(line)
        path.write_text("\n".join(lines) + "\n")

        runner = SweepRunner(max_workers=1, journal=tmp_path, resume=True)
        outcomes = runner.run(trace, configs)
        assert outcomes[0].resumed
        assert outcomes[1].ok and not outcomes[1].resumed
        assert runner.last_metrics.resumed == 1

    def test_journal_end_record_carries_metrics(self, trace, tmp_path):
        SweepRunner(max_workers=1, journal=tmp_path).run(trace, _configs(2))
        state = SweepJournal(tmp_path).read()
        end = state.records[-1]
        assert end["t"] == "end"
        assert end["metrics"]["completed"] == 1
        # The journal is strict JSON end to end (no bare NaN).
        json.loads((tmp_path / JOURNAL_NAME).read_text().splitlines()[-1])


# ----------------------------------------------------------------------
# Circuit breaker unit behaviour
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_at_threshold_with_min_samples(self):
        breaker = CircuitBreaker(window=8, threshold=0.5, min_samples=4)
        assert breaker.record_failure("WorkerCrashed") is False
        assert breaker.record_failure("WorkerCrashed") is False
        assert breaker.record_failure("WorkerCrashed") is False
        assert breaker.state == "closed"          # min_samples not reached
        assert breaker.record_failure("PointTimeout") is True
        assert breaker.state == "open"
        assert breaker.trips == 1

    def test_successes_dilute_the_window(self):
        breaker = CircuitBreaker(window=8, threshold=0.5, min_samples=4)
        for _ in range(6):
            breaker.record_success()
        breaker.record_failure("WorkerCrashed")
        breaker.record_failure("WorkerCrashed")
        assert breaker.state == "closed"          # 2/8 < 0.5

    def test_non_infrastructure_failures_do_not_count(self):
        breaker = CircuitBreaker(min_samples=1, threshold=0.1)
        for _ in range(10):
            assert breaker.record_failure("VerifyError") is False
            assert breaker.record_failure("ValueError") is False
        assert breaker.state == "closed"

    def test_open_fails_fast_then_probes(self):
        breaker = CircuitBreaker(min_samples=1, threshold=0.5,
                                 probe_interval=3)
        breaker.record_failure("WorkerCrashed")
        assert breaker.state == "open"
        assert breaker.admit() is False
        assert breaker.admit() is False
        assert breaker.admit() is True            # third attempt = probe
        assert breaker.state == "half_open"
        assert breaker.admit() is False           # one probe at a time

    def test_probe_success_closes_and_clears(self):
        breaker = CircuitBreaker(min_samples=1, threshold=0.5,
                                 probe_interval=1)
        breaker.record_failure("WorkerCrashed")
        assert breaker.admit() is True
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.failure_rate == 0.0
        assert breaker.admit() is True

    def test_probe_failure_reopens(self):
        breaker = CircuitBreaker(min_samples=1, threshold=0.5,
                                 probe_interval=1)
        breaker.record_failure("PointTimeout")
        assert breaker.admit() is True
        assert breaker.record_failure("PointTimeout") is True
        assert breaker.state == "open"
        assert breaker.trips == 2
        assert breaker.admit() is True            # probe_interval=1
        breaker.record_success()
        assert breaker.state == "closed"

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=1.5)
        with pytest.raises(ValueError):
            CircuitBreaker(min_samples=0)
        with pytest.raises(ValueError):
            CircuitBreaker(probe_interval=0)


# ----------------------------------------------------------------------
# Breaker wired into a sweep
# ----------------------------------------------------------------------
class TestBreakeredSweep:
    def test_timeout_storm_trips_then_recovers_inproc(self, trace):
        # Four doomed points (soft deadline impossible to meet), then
        # healthy ones: the breaker trips after the storm, fast-fails
        # until the probe, and the probe's success re-closes it.
        doomed = [SimulationConfig(parallelism="ddp", num_gpus=2,
                                   link_bandwidth=25e9, deadline_soft=1e-7)
                  for _ in range(4)]
        healthy = _configs(2, 4, 2, 4, 2)
        breaker = CircuitBreaker(window=8, threshold=0.5, min_samples=4,
                                 probe_interval=2)
        runner = SweepRunner(max_workers=1, breaker=breaker)
        outcomes = runner.run(trace, doomed + healthy)

        kinds = [o.error.kind if o.error else "ok" for o in outcomes]
        assert kinds[:4] == ["PointTimeout"] * 4   # the storm
        assert breaker.trips >= 1
        assert "CircuitOpen" in kinds[4:]          # fast-failed points
        assert "ok" in kinds[4:]                   # probe recovered
        metrics = runner.last_metrics
        assert metrics.timeouts == 4
        assert metrics.circuit_trips == breaker.trips
        assert metrics.circuit_skips == kinds.count("CircuitOpen")
        assert metrics.detail()["circuit_skips"] == metrics.circuit_skips

    def test_timeout_storm_recovers_in_parallel_path(self, trace):
        # Regression: once the breaker tripped inside the parallel
        # wave, the dispatch loop used to drain the entire remaining
        # queue through fail-fast admission before the half-open
        # probe's result could close the breaker — a transient storm
        # failed the whole rest of the sweep.  Dispatch must instead
        # pause while the breaker is open and resume after a
        # successful probe.
        doomed = [SimulationConfig(parallelism="ddp", num_gpus=2,
                                   link_bandwidth=25e9, deadline_soft=1e-7)
                  for _ in range(6)]
        healthy = _configs(2, 4, 2, 4, 2, 4)
        breaker = CircuitBreaker(window=8, threshold=0.5, min_samples=4,
                                 probe_interval=2)
        runner = SweepRunner(max_workers=2, breaker=breaker)
        outcomes = runner.run(trace, doomed + healthy)

        kinds = [o.error.kind if o.error else "ok" for o in outcomes]
        assert set(kinds[:6]) <= {"PointTimeout", "CircuitOpen"}
        assert breaker.trips >= 1
        # Per open episode at most probe_interval - 1 points fail fast
        # before a probe flies, so a recovered sweep completes nearly
        # every healthy point instead of failing them all fast.
        budget = breaker.trips * (breaker.probe_interval - 1)
        assert kinds.count("CircuitOpen") <= budget
        assert kinds[6:].count("ok") >= len(healthy) - budget
        metrics = runner.last_metrics
        assert metrics.circuit_skips == kinds.count("CircuitOpen")
        assert metrics.circuit_trips == breaker.trips

    def test_breaker_true_uses_defaults(self, trace):
        runner = SweepRunner(max_workers=1, breaker=True)
        assert isinstance(runner.breaker, CircuitBreaker)
        outcomes = runner.run(trace, _configs(2))
        assert outcomes[0].ok
        assert runner.breaker.state == "closed"

    def test_circuit_open_outcomes_are_journaled_for_resume(
            self, trace, tmp_path):
        doomed = [SimulationConfig(parallelism="ddp", num_gpus=2,
                                   link_bandwidth=25e9, deadline_soft=1e-7)
                  for _ in range(2)]
        healthy = _configs(4, 8)
        breaker = CircuitBreaker(window=4, threshold=0.5, min_samples=2,
                                 probe_interval=10)
        SweepRunner(max_workers=1, breaker=breaker, journal=tmp_path) \
            .run(trace, doomed + healthy)
        state = SweepJournal(tmp_path).read()
        open_fails = [r for r in state.records
                      if r["t"] == "fail" and r["kind"] == "CircuitOpen"]
        assert open_fails                      # fast-failed and recorded
        assert set(state.completed) == set()   # nothing completed
