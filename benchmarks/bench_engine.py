"""Write the exact-path engine benchmark results to ``BENCH_engine.json``.

The exact event-by-event path is what every fold-ineligible run executes
— fault injection, flowlet/adaptive routing, ``--sanitize``/``--verify``,
timeline recording — and what every sweep-service worker spends its time
in.  This benchmark pins the engine down from two sides:

* **Pinned dispatch** — the faulted and clean 64-GPU scenarios (16 GPUs
  with ``--quick``) must reproduce their recorded dispatch digests (the
  ``(time, seq)`` fold the verifier computes), simulated times, and
  event counts, bit for bit.  A divergence fails the benchmark, not just
  the gate.

* **Throughput** — best-of-N events/sec on the faulted + adaptive-routing
  scenario.  ``speedup_vs_pre_overhaul`` compares against the recorded
  pre-overhaul baseline (see ``pre_overhaul`` in the output).

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py [-o BENCH_engine.json]
    PYTHONPATH=src python benchmarks/bench_engine.py --quick   # CI smoke
    PYTHONPATH=src python benchmarks/bench_engine.py --profile out.pstats
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core.config import SimulationConfig
from repro.core.plan import PlanCache
from repro.core.simulator import TrioSim
from repro.faults.spec import FaultSpec
from repro.gpus.specs import get_gpu
from repro.trace.tracer import Tracer
from repro.workloads.registry import get_model

#: The headline scenario: a 64-GPU DDP run on a leaf-spine fabric with
#: adaptive routing and a straggler fault — every knob that disables
#: iteration folding, so the run is pure exact path.  Quick mode shrinks
#: the model and fabric so CI stays under ~30s.
FULL = dict(model="resnet50", batch=128, num_gpus=64, iterations=2,
            repeats=3)
QUICK = dict(model="resnet18", batch=32, num_gpus=16, iterations=2,
             repeats=2)

#: ``(dispatch digest, simulated seconds, events)`` per arm and scale.
#: Recorded when the columnar scheduler was proven dispatch-identical
#: to the per-object dependency walk it replaced.
PINNED = {
    False: {"faulted": ("28c9f1ca8f4caee0", 0.2053144305068356, 192303),
            "clean": ("cde0e7e7865bc072", 0.18863803921515243, 192303)},
    True: {"faulted": ("1f230fd73109a37c", 0.022191069952813544, 10103),
           "clean": ("9b34ac9e49f24202", 0.015341225055199572, 10103)},
}

#: Straggler spec for the faulted arm (seeded: bit-identical digests).
FAULTS = {
    "schema_version": 1, "seed": 0,
    "stragglers": [{"gpu": "gpu1", "start": 0.001, "duration": 0.05,
                    "factor": 1.5}],
    "link_faults": [], "failures": [], "checkpoint_interval": None,
    "checkpoint_cost": 0.0, "restore_cost": 0.0, "chaos_kill_at": None,
}

#: The pre-overhaul engine's throughput on the FULL faulted scenario,
#: measured at the commit preceding the exact-path overhaul (object
#: dependency walk, per-event dispatch, per-event hook machinery) with
#: this file's exact methodology — warm plan cache, best-of-3 — on the
#: same machine that produced the committed BENCH_engine.json.  Its
#: simulated time equals the overhauled engine's to the bit.  The
#: ``speedup_vs_pre_overhaul`` headline divides by this; it is only
#: meaningful for full (non ``--quick``) runs on comparable hardware.
PRE_OVERHAUL_EVENTS_PER_SEC = 64_897


def _config(num_gpus: int, iterations: int, faulted: bool) -> SimulationConfig:
    return SimulationConfig(
        parallelism="ddp", num_gpus=num_gpus, topology="leaf_spine",
        link_bandwidth=234e9, iterations=iterations, routing="adaptive",
        faults=FaultSpec.from_dict(FAULTS) if faulted else None)


def _digest_arm(trace, cache: PlanCache, num_gpus: int, iterations: int,
                faulted: bool) -> Tuple[str, float, int]:
    """Dispatch digest, simulated time and event count of one arm (the
    race-detector tier computes the digest; it observes, never steers)."""
    sim = TrioSim(trace, _config(num_gpus, iterations, faulted),
                  record_timeline=False, plan_cache=cache, verify="races")
    result = sim.run()
    return f"{sim.verify_digest:016x}", result.total_time, result.events


def _timed_arm(trace, cache: PlanCache, num_gpus: int, iterations: int,
               repeats: int) -> Tuple[float, int]:
    """Best-of-*repeats* wall seconds for the faulted scenario."""
    best = float("inf")
    events = 0
    for _ in range(repeats):
        sim = TrioSim(trace, _config(num_gpus, iterations, faulted=True),
                      record_timeline=False, plan_cache=cache)
        start = time.perf_counter()
        result = sim.run()
        wall = time.perf_counter() - start
        if wall < best:
            best = wall
        events = result.events
    return best, events


def run(quick: bool = False,
        profile_out: Optional[str] = None) -> dict:
    params = QUICK if quick else FULL
    trace = Tracer(get_gpu("A100")).trace(get_model(params["model"]),
                                          params["batch"])
    cache = PlanCache()
    num_gpus, iterations = params["num_gpus"], params["iterations"]

    # Pinned dispatch: digest, simulated time and events, bit for bit.
    pinned: Dict[str, dict] = {}
    for arm_name, faulted in (("faulted", True), ("clean", False)):
        got = _digest_arm(trace, cache, num_gpus, iterations, faulted)
        want = PINNED[quick][arm_name]
        assert got == want, f"{arm_name}: dispatch diverged: {got} vs {want}"
        digest, total, events = got
        pinned[arm_name] = {
            "dispatch_digest": digest,
            "simulated_time_s": total,
            "events": events,
        }

    # Throughput: best-of-N on the faulted scenario.
    wall, events = _timed_arm(trace, cache, num_gpus, iterations,
                              params["repeats"])
    events_per_sec = events / wall

    if profile_out:
        import cProfile

        profiler = cProfile.Profile()
        sim = TrioSim(trace, _config(num_gpus, iterations, faulted=True),
                      record_timeline=False, plan_cache=cache)
        profiler.enable()
        sim.run()
        profiler.disable()
        profiler.dump_stats(profile_out)

    payload = {
        "benchmark": "engine_exact_path",
        "schema_version": 1,
        "quick": quick,
        "python": platform.python_version(),
        "params": dict(model=params["model"], batch=params["batch"],
                       num_gpus=num_gpus, iterations=iterations,
                       topology="leaf_spine", routing="adaptive",
                       link_bandwidth=234e9, repeats=params["repeats"],
                       faults="straggler gpu1 x1.5 (seed 0)"),
        "pinned": pinned,
        "timing": {
            "wall_s": wall,
            "events": events,
            "events_per_sec": events_per_sec,
        },
        "headline": {
            "scenario": f"{params['model']}_ddp_faults_adaptive",
            "num_gpus": num_gpus,
            "events": events,
            "events_per_sec": events_per_sec,
            "dispatch_digest": pinned["faulted"]["dispatch_digest"],
            "clean_dispatch_digest": pinned["clean"]["dispatch_digest"],
            "identical_simulated_time": True,
        },
    }
    if not quick:
        payload["pre_overhaul"] = {
            "events_per_sec": PRE_OVERHAUL_EVENTS_PER_SEC,
            "method": "same scenario and machine as this file's timing, "
                      "measured at the commit before the exact-path "
                      "engine overhaul (object dependency walk, "
                      "per-event dispatch)",
        }
        payload["headline"]["speedup_vs_pre_overhaul"] = (
            events_per_sec / PRE_OVERHAUL_EVENTS_PER_SEC)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-o", "--output", default="BENCH_engine.json",
                        help="output path (default: ./BENCH_engine.json)")
    parser.add_argument("--quick", action="store_true",
                        help="small scenario for CI smoke runs")
    parser.add_argument("--profile", default=None, metavar="PSTATS",
                        help="also cProfile one exact-path run and dump "
                             "the stats here (CI uploads this artifact)")
    args = parser.parse_args(argv)

    payload = run(quick=args.quick, profile_out=args.profile)
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    head = payload["headline"]
    print(f"wrote {out}")
    line = (f"  {head['scenario']} @ {head['num_gpus']} GPUs: "
            f"{head['events_per_sec']:,.0f} events/s, "
            f"digest {head['dispatch_digest']}")
    if "speedup_vs_pre_overhaul" in head:
        line += (f", {head['speedup_vs_pre_overhaul']:.2f}x vs "
                 f"pre-overhaul engine")
    print(line)
    if args.profile:
        print(f"  cProfile stats -> {args.profile}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
