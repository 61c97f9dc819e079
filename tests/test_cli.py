"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.trace.trace import Trace


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.json"
    code = main(["trace", "resnet18", "--gpu", "A40", "--batch", "32",
                 "-o", str(path)])
    assert code == 0
    return path


class TestModels:
    def test_lists_zoo(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "resnet50" in out and "llama-3.2-1b" in out


class TestTrace:
    def test_writes_valid_trace(self, trace_file):
        trace = Trace.load(trace_file)
        assert trace.model_name == "resnet18"
        assert trace.gpu_name == "A40"
        assert trace.batch_size == 32

    def test_inference_flag(self, tmp_path):
        path = tmp_path / "inf.json"
        assert main(["trace", "resnet18", "--inference", "-o", str(path)]) == 0
        trace = Trace.load(path)
        assert trace.backward_ops == []

    def test_unknown_model_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "alexnet", "-o", str(tmp_path / "x.json")])


class TestSimulate:
    def test_basic_run(self, trace_file, capsys):
        code = main(["simulate", str(trace_file), "--parallelism", "ddp",
                     "--num-gpus", "2", "--bandwidth", "20e9"])
        assert code == 0
        out = capsys.readouterr().out
        assert "total" in out and "comm" in out

    def test_timeline_export(self, trace_file, tmp_path, capsys):
        timeline = tmp_path / "tl.json"
        code = main(["simulate", str(trace_file), "--num-gpus", "2",
                     "--timeline", str(timeline)])
        assert code == 0
        data = json.loads(timeline.read_text())
        assert data["traceEvents"]

    def test_memory_check_pass(self, trace_file, capsys):
        code = main(["simulate", str(trace_file), "--memory-check"])
        assert code == 0
        assert "fits" in capsys.readouterr().out

    def test_memory_check_oom_exit_code(self, trace_file, capsys):
        # ResNet-18 at batch 8192 cannot fit a 48 GB A40.
        code = main(["simulate", str(trace_file), "--batch", "8192",
                     "--memory-check"])
        assert code == 2
        assert "OUT OF MEMORY" in capsys.readouterr().out

    def test_cross_gpu_flag(self, trace_file, capsys):
        assert main(["simulate", str(trace_file), "--gpu", "H100"]) == 0

    def test_hybrid_flags(self, trace_file):
        code = main(["simulate", str(trace_file), "--parallelism", "hybrid",
                     "--num-gpus", "4", "--dp-degree", "2", "--chunks", "2"])
        assert code == 0

    def test_hierarchical_collective(self, trace_file):
        code = main(["simulate", str(trace_file), "--num-gpus", "4",
                     "--collective", "hierarchical", "--gpus-per-node", "2"])
        assert code == 0


    def test_profile_prints_pipeline_phases(self, trace_file, capsys):
        code = main(["simulate", str(trace_file), "--num-gpus", "2",
                     "--profile"])
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("pipeline:")]
        assert len(lines) == 1
        for phase in ("trace_prep", "plan", "instancing", "engine"):
            assert f"{phase} " in lines[0], phase
        assert "engine." not in lines[0]
        assert "| fold" not in lines[0]  # one iteration has no fold status
        # A folded run renders its fold phases and its fold status.
        code = main(["simulate", str(trace_file), "--parallelism", "ddp",
                     "--num-gpus", "4", "--iterations", "8", "--profile"])
        assert code == 0
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("pipeline:")]
        assert len(lines) == 1
        assert "fold_extend " in lines[0]
        assert lines[0].endswith("| fold folded")


class TestExperiment:
    @pytest.mark.slow
    def test_quick_figure(self, capsys):
        code = main(["experiment", "fig13", "--quick"])
        assert code == 0
        assert "fig13" in capsys.readouterr().out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestInspect:
    def test_summary(self, trace_file, capsys):
        assert main(["inspect", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "resnet18" in out and "by phase" in out

    def test_diff(self, trace_file, tmp_path, capsys):
        other = tmp_path / "other.json"
        main(["trace", "resnet18", "--gpu", "H100", "--batch", "32",
              "-o", str(other)])
        assert main(["inspect", str(trace_file), "--diff", str(other)]) == 0
        out = capsys.readouterr().out
        assert "total" in out and "->" in out

    def test_report_flag(self, trace_file, tmp_path, capsys):
        report = tmp_path / "r.html"
        assert main(["simulate", str(trace_file), "--num-gpus", "2",
                     "--report", str(report)]) == 0
        assert report.read_text().startswith("<!DOCTYPE html>")


class TestSweep:
    @pytest.fixture
    def spec_file(self, trace_file, tmp_path):
        spec = {
            "trace": str(trace_file),
            "base": {"parallelism": "ddp"},
            "axes": {"num_gpus": [1, 2], "link_bandwidth": [25e9, 100e9]},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return path

    def test_sweep_runs_all_points(self, spec_file, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(["sweep", str(spec_file), "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "[4/4]" in printed and "4 points" in printed
        payload = json.loads(out.read_text())
        assert len(payload) == 4
        assert all(p["result"]["total_time"] > 0 for p in payload)
        assert payload[0]["label"].startswith("num_gpus=1")

    def test_sweep_second_run_fully_cached(self, spec_file, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["sweep", str(spec_file), "--cache", str(cache)]) == 0
        first = capsys.readouterr().out
        assert "0 cache hits" in first
        assert main(["sweep", str(spec_file), "--cache", str(cache)]) == 0
        second = capsys.readouterr().out
        assert "4 cache hits (100%)" in second
        assert "0 simulated events/s" in second

    def test_sweep_csv_output(self, spec_file, tmp_path):
        csv_path = tmp_path / "out.csv"
        assert main(["sweep", str(spec_file), "--csv", str(csv_path)]) == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "label,total_s,cached,error"
        assert len(lines) == 5
        assert all(line.count(",") >= 3 for line in lines[1:])

    def test_sweep_model_spec_without_trace_file(self, tmp_path):
        spec = {
            "model": "resnet18", "gpu": "A40", "batch": 16,
            "axes": {"num_gpus": [1, 2]},
        }
        path = tmp_path / "zoo.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "out.json"
        assert main(["sweep", str(path), "-o", str(out)]) == 0
        assert len(json.loads(out.read_text())) == 2

    def test_sweep_invalid_spec_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"model": "resnet18",
                                    "axes": {"num_gpu": [2]}}))
        with pytest.raises(ValueError):
            main(["sweep", str(path)])


class TestSweepBreakerFlags:
    @pytest.fixture
    def captured_runner_kwargs(self, monkeypatch):
        import repro.service as service

        captured = {}
        real = service.SweepRunner

        class Capturing(real):
            def __init__(self, **kwargs):
                captured.update(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(service, "SweepRunner", Capturing)
        return captured

    def _spec(self, trace_file, tmp_path, **extra):
        spec = {
            "trace": str(trace_file),
            "base": {"parallelism": "ddp"},
            "axes": {"num_gpus": [1, 2]},
            **extra,
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        return path

    def test_breaker_flag_keeps_the_specs_tuning(
            self, trace_file, tmp_path, captured_runner_kwargs):
        from repro.service import CircuitBreaker

        tuned = {"window": 5, "threshold": 0.25, "min_samples": 2,
                 "probe_interval": 7}
        path = self._spec(trace_file, tmp_path, breaker=tuned)
        assert main(["sweep", str(path), "--breaker"]) == 0
        breaker = captured_runner_kwargs["breaker"]
        assert isinstance(breaker, CircuitBreaker)
        assert (breaker.window, breaker.threshold, breaker.min_samples,
                breaker.probe_interval) == (5, 0.25, 2, 7)

    def test_breaker_flag_enables_without_spec_setting(
            self, trace_file, tmp_path, captured_runner_kwargs):
        path = self._spec(trace_file, tmp_path)
        assert main(["sweep", str(path), "--breaker"]) == 0
        assert captured_runner_kwargs["breaker"] is True
        assert main(["sweep", str(path)]) == 0
        assert captured_runner_kwargs["breaker"] is False

    def test_no_breaker_overrides_spec_and_flag(
            self, trace_file, tmp_path, captured_runner_kwargs):
        tuned = {"window": 5, "threshold": 0.25}
        path = self._spec(trace_file, tmp_path, breaker=tuned)
        assert main(["sweep", str(path), "--breaker", "--no-breaker"]) == 0
        assert captured_runner_kwargs["breaker"] is None

    def test_deadline_hard_comes_from_spec_or_flag(
            self, trace_file, tmp_path, captured_runner_kwargs):
        path = self._spec(trace_file, tmp_path, deadline_hard=30.0)
        assert main(["sweep", str(path)]) == 0
        assert captured_runner_kwargs["deadline_hard"] == 30.0
        assert main(["sweep", str(path), "--deadline-hard", "10"]) == 0
        assert captured_runner_kwargs["deadline_hard"] == 10.0
        with pytest.raises(SystemExit):
            main(["sweep", str(path), "--timeout", "20"])


class TestSaveResult:
    def test_simulate_save_result_round_trips(self, trace_file, tmp_path):
        from repro.core.results import SimulationResult

        out = tmp_path / "result.json"
        code = main(["simulate", str(trace_file), "--num-gpus", "2",
                     "--save-result", str(out)])
        assert code == 0
        restored = SimulationResult.from_json(out.read_text())
        assert restored.total_time > 0
        assert restored.events > 0
