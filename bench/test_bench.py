"""Self-tests of the benchmark harness: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layers  # noqa: E402
import run  # noqa: E402


def _sims(*values):
    return [{"label": f"s{i}", "wall": 0.1, "total_time": value,
             "error": None} for i, value in enumerate(values)]


def test_quick_run_emits_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--passes", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in run.WORKLOADS:
        for metric in spec["end_to_end"] + spec["per_layer"]:
            found = result["metrics"][f"{workload}/{metric['name']}"]
            assert found["unit"] == metric["unit"]
            assert math.isfinite(found["value"])
        for name in spec["end_to_end"]:
            assert result["metrics"][f"{workload}/{name['name']}"]["value"] > 0
        trace = json.loads((HERE / "out" / f"{workload}.trace.json")
                           .read_text())
        assert trace["spans"]
        assert set(trace["layers"]) == set(layers.LAYERS)
        if workload != "sweep_grid":  # its points run in pool workers
            share = trace["layer_self_sum_s"] / trace["profiled_wall_s"]
            assert abs(share - 1.0) < 0.05, (workload, share)


def test_digest_check_fails_when_one_simulated_value_is_perturbed():
    first = {"pass": 1, "sims": _sims(0.25, 1.5, 3.0)}
    perturbed = _sims(0.25, 1.5, 3.0)
    perturbed[1]["total_time"] = math.nextafter(1.5, 2.0)
    second = {"pass": 2, "sims": perturbed}
    expected = run.digest(first["sims"])

    clean = run.count_failures([first, dict(first, **{"pass": 2})], expected)
    assert clean["failed"] == 0 and clean["attempted"] == 6

    found = run.count_failures([first, second], expected)
    assert found["failed"] == 3
    assert found["problems"] and "digest" in found["problems"][0]
    # Without a recorded digest the first pass is the reference.
    assert run.count_failures([first, second], None)["failed"] == 3


def test_error_rate_counts_a_failing_sweep_point():
    from repro import SimulationConfig, SweepOutcome, Tracer, TrioSim
    from repro import get_gpu, get_model
    from repro.service.runner import SweepError, SweepMetrics

    import workloads

    trace = Tracer(get_gpu("A100")).trace(get_model("resnet18"), 16)
    config = SimulationConfig(parallelism="single")
    good = SweepOutcome(index=0, config=config, label="good",
                        result=TrioSim(trace, config,
                                       record_timeline=False).run())
    bad = SweepOutcome(index=1, config=config, label="bad",
                       error=SweepError("WorkerCrashed", "worker died"))
    record = workloads.Pass()
    workloads.record_sweep([good, bad], SweepMetrics(total=2), 1.0, 2,
                           record)
    found = run.count_failures([{"pass": 1, "sims": record.sims}], None)
    assert found["attempted"] == 2
    assert found["failed"] == 1
    assert "WorkerCrashed" in found["problems"][0]
