"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 bench/run.py                         # all four, 7 interleaved
                                                 # passes each + traced pass
    python3 bench/run.py --workload exact_fabric --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --sets 2 --trace 0      # run-to-run spread
    python3 bench/run.py --quick --passes 1      # scaled-down smoke run

Every pass is a fresh interpreter (``bench/workloads.py``) that sets its
workload up from ``--seed`` and then issues the workload's simulations
back to back.  Passes of the chosen workloads run in interleaved rounds
after one untimed set-up-only warm-up per workload.  With ``--seconds``
rounds continue until that many seconds have been measured (at least
three rounds); otherwise ``--passes`` rounds run.

End-to-end metrics (``BENCHMARK.json`` ``end_to_end``) are medians over
the untraced passes.  Simulated outputs are checked, not timed: every
pass, and the traced pass, must produce the same digest of simulated
times; at seed 0 it must equal the digest in ``bench/expected.json``.
A mismatch, an error or a failed contract counts the simulations
concerned as failed, and the exit code is then 1.

With ``--trace 1`` one more pass runs under cProfile and the per-layer
metrics (``per_layer``) are reported; the spans and the layer table go
to ``bench/out/<workload>.trace.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

WORKLOADS = ("exact_fabric", "fabric_storm", "paper_platforms", "sweep_grid")
#: Seconds one pass may take before it is killed.
PASS_TIMEOUT = 120
#: Rounds a time-bounded run makes at least, so each median has three
#: samples.
MIN_ROUNDS = 3


class PassError(RuntimeError):
    """A pass process failed, timed out, or printed no record."""


def spawn(workload: str, seed: int, quick: bool, pass_id: int,
          *flags: str, stdin: Optional[str] = None) -> dict:
    """Run one pass of *workload* in a fresh interpreter; its record."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "workloads.py"), workload,
           "--seed", str(seed), "--pass-id", str(pass_id)]
    if quick:
        cmd.append("--quick")
    cmd.extend(flags)
    cmd.extend(["--spawned-at", repr(time.monotonic())])
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, text=True, start_new_session=True,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(stdin, timeout=PASS_TIMEOUT)
    except BaseException as exc:
        os.killpg(proc.pid, signal.SIGKILL)  # the pass and its workers
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise PassError(f"{workload} pass {pass_id} timed out "
                            f"after {PASS_TIMEOUT} s") from exc
        raise
    lines = out.strip().splitlines()
    if proc.returncode or not lines:
        raise PassError(f"{workload} pass {pass_id} exited with "
                        f"{proc.returncode}")
    return json.loads(lines[-1])


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def digest(sims: List[dict]) -> str:
    """Order-independent digest of every simulation's simulated time."""
    values = sorted((s["label"], s["total_time"].hex()
                     if s["total_time"] is not None else None)
                    for s in sims)
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def count_failures(passes: List[dict], expected: Optional[str]) -> Dict:
    """Attempted and failed simulations over *passes* of one workload.

    A simulation fails when it raised or broke a contract (its record
    carries an error), or when its pass's digest differs from
    *expected* (or, without one, from the first pass's).
    """
    reference = expected or (digest(passes[0]["sims"]) if passes else None)
    attempted = failed = 0
    problems = []
    for record in passes:
        sims = record["sims"]
        attempted += len(sims)
        found = digest(sims)
        if found != reference:
            failed += len(sims)
            problems.append(f"pass {record['pass']}: digest {found} != "
                            f"{reference}")
            continue
        for sim in sims:
            if sim["error"]:
                failed += 1
                problems.append(f"pass {record['pass']}: {sim['label']}: "
                                f"{sim['error']}")
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "digest": reference}


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def accuracy(errors: Dict[str, float]) -> Dict[str, float]:
    """Mean and max |predicted - oracle| / oracle, in percent."""
    values = [abs(errors[label]) * 100.0 for label in sorted(errors)]
    return {"mean_abs_err_pct": sum(values) / len(values),
            "max_abs_err_pct": max(values)}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def samples(metric: str, passes: List[dict]) -> List[float]:
    """The per-pass (or per-simulation) samples behind one metric."""
    if metric == "wall_s":
        return [p["wall_s"] for p in passes]
    if metric == "sims_per_s":
        return [sum(1 for s in p["sims"] if not s["error"]) / p["wall_s"]
                for p in passes]
    if metric == "sim_s_p50":
        return [s["wall"] for p in passes for s in p["sims"]
                if not s["error"]]
    if metric == "setup_s":
        return [p["setup_s"] for p in passes]
    if metric == "peak_rss_mb":
        return [p["rss_mb"] for p in passes]
    raise KeyError(metric)


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def per_layer(traced: dict, passes: List[dict],
              names: List[str]) -> Dict[str, float]:
    """The per-layer metrics *names*.

    ``<layer>.self_s`` and ``<layer>.calls`` come from the traced pass;
    phases and counters are medians over the untraced passes, which the
    profiler does not slow down.  A counter the workload does not have
    reads 0.
    """
    def median(field: str, name: str) -> float:
        return statistics.median(p[field].get(name, 0) for p in passes)

    engine_s = median("phases", "engine")
    hits = median("counters", "network.fastpath_hits")
    moved = hits + median("counters", "network.reschedules")
    derived = {
        "engine.events_per_s": (median("counters", "engine.events")
                                / engine_s if engine_s else 0.0),
        "network.fastpath_ratio": hits / moved if moved else 0.0,
        "tracing.overhead": traced["wall_s"] / statistics.median(
            p["wall_s"] for p in passes),
    }
    metrics: Dict[str, float] = {}
    for name in names:
        layer, _, kind = name.partition(".")
        if name in derived:
            metrics[name] = derived[name]
        elif layer in traced["layers"] and kind in ("self_s", "calls"):
            metrics[name] = traced["layers"][layer][kind]
        elif layer == "phase":
            metrics[name] = median("phases", kind[:-len("_s")])
        else:
            metrics[name] = median("counters", name)
    return metrics


# ----------------------------------------------------------------------
# Driving the passes
# ----------------------------------------------------------------------
class Run:
    """The passes of one invocation, grouped by workload."""

    def __init__(self, workloads, seed: int, quick: bool):
        self.workloads = list(workloads)
        self.seed = seed
        self.quick = quick
        self.next_id = 0
        self.sets: List[Dict[str, List[dict]]] = []
        self.traced: Dict[str, dict] = {}

    def spawn(self, workload: str, *flags: str,
              stdin: Optional[str] = None) -> dict:
        self.next_id += 1
        return spawn(workload, self.seed, self.quick, self.next_id, *flags,
                     stdin=stdin)

    def warm_up(self) -> None:
        for workload in self.workloads:
            self.spawn(workload, "--setup-only")

    def measure_set(self, passes: int, seconds: Optional[float]) -> None:
        found: Dict[str, List[dict]] = {w: [] for w in self.workloads}
        started = time.monotonic()
        rounds = 0
        while True:
            for workload in self.workloads:
                found[workload].append(self.spawn(workload))
            rounds += 1
            if seconds is None:
                if rounds >= passes:
                    break
            elif (time.monotonic() - started >= seconds
                  and rounds >= MIN_ROUNDS):
                break
        self.sets.append(found)

    def measured(self, workload: str) -> List[dict]:
        return [p for found in self.sets for p in found[workload]]

    def trace(self) -> None:
        for workload in self.workloads:
            self.traced[workload] = self.spawn(workload, "--profile")


def check(run: Run, expected: dict) -> Dict[str, dict]:
    """Correctness of every workload's passes, traced pass included."""
    mode = expected.get("quick" if run.quick else "full", {})
    report = {}
    for workload in run.workloads:
        passes = run.measured(workload)
        if workload in run.traced:
            passes = passes + [run.traced[workload]]
        want = (mode.get("digests", {}).get(workload)
                if run.seed == 0 else None)
        report[workload] = count_failures(passes, want)
    if "paper_platforms" in run.workloads:
        first = run.measured("paper_platforms")[0]
        predicted = {s["label"]: s["total_time"] for s in first["sims"]
                     if s["total_time"] is not None}
        found = accuracy(run.spawn("paper_platforms", "--accuracy",
                                   stdin=json.dumps(predicted)))
        entry = report["paper_platforms"]
        entry["accuracy"] = found
        want = mode.get("accuracy")
        # The seed only reorders paper_platforms points, so the
        # accuracy is the same for every seed.
        if want is not None and found != want:
            entry["failed"] = entry["attempted"]
            entry["problems"].append(f"accuracy {found} != {want}")
    return report


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def write_trace(run: Run, workload: str, layer_metrics: dict) -> Path:
    traced = run.traced[workload]
    spans = [span for record in run.measured(workload) + [traced]
             for span in record["spans"]]
    self_sum = sum(row["self_s"] for row in traced["layers"].values())
    payload = {
        "workload": workload, "seed": run.seed, "quick": run.quick,
        "traced_pass": traced["pass"],
        "profiled_wall_s": traced["profiled_wall_s"],
        "layer_self_sum_s": self_sum,
        "tracing_overhead": layer_metrics["tracing.overhead"],
        "layers": traced["layers"],
        "per_layer": layer_metrics,
        "spans": spans,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}.trace.json"
    path.write_text(json.dumps(payload, indent=1) + "\n")
    return path


def print_spread(run: Run, names: List[str]) -> None:
    """Each set's median and quartiles per metric, and how far the
    set medians are apart."""
    print(f"spread: {len(run.sets)} sets, nproc {os.cpu_count()}, python "
          f"{platform.python_version()}, {time.strftime('%Y-%m-%d')}")
    for workload in run.workloads:
        for name in names:
            medians = []
            parts = []
            for found in run.sets:
                q1, q2, q3 = quartiles(samples(name, found[workload]))
                medians.append(q2)
                parts.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}]")
            rel = (medians[-1] - medians[0]) / medians[0]
            print(f"  {workload:16s} {name:12s} " + " | ".join(parts)
                  + f"  diff {rel * 100:+.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure this long per set (default: "
                             "--passes rounds)")
    parser.add_argument("--passes", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: add a cProfile'd pass and report the "
                             "per-layer metrics (default: 1 when all "
                             "workloads run, else 0)")
    parser.add_argument("--sets", type=int, default=1,
                        help="measure this many interleaved sets back to "
                             "back and print their spread")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down workload sizes")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = (args.trace == 1 if args.trace is not None
              else args.workload == "all")
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}

    run = Run(workloads, args.seed, args.quick)
    try:
        run.warm_up()
        for _ in range(args.sets):
            run.measure_set(args.passes, args.seconds)
        if traced:
            run.trace()
        report = check(run, load_expected())
    except PassError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    metrics: Dict[str, dict] = {}
    attempted = failed = 0
    for workload in workloads:
        passes = run.measured(workload)
        entry = report[workload]
        attempted += entry["attempted"]
        failed += entry["failed"]
        e2e = {name: statistics.median(samples(name, passes))
               for name in e2e_names}
        found = dict(e2e) if args.trace != 1 else {}
        if traced:
            layer_metrics = per_layer(run.traced[workload], passes,
                                      layer_names)
            path = write_trace(run, workload, layer_metrics)
            found.update(layer_metrics)
        sims = samples("sim_s_p50", passes)
        print(f"{workload}: {len(passes)} passes, {len(sims)} simulations, "
              f"digest {entry['digest']}, failed {entry['failed']}/"
              f"{entry['attempted']}")
        for problem in entry["problems"]:
            print(f"  FAILED {problem}")
        for name, value in e2e.items():
            print(f"  {name:24s} {value:.6g} {units[name]}")
        if len(sims) >= 200:
            p95 = statistics.quantiles(sims, n=20)[-1]
            print(f"  {'sim_s_p95':24s} {p95:.6g} s (n={len(sims)})")
        for name, value in entry.get("accuracy", {}).items():
            print(f"  {name:24s} {value:.6g} %")
        if traced:
            print(f"  per-layer table -> {path.relative_to(ROOT)} "
                  f"(tracing overhead "
                  f"{found['tracing.overhead']:.2f}x)")
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for name, value in found.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    if args.sets > 1:
        print_spread(run, e2e_names)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
