"""Command-line interface.

The subcommands mirror the library workflow::

    python -m repro models                          # list the zoo
    python -m repro trace resnet50 --gpu A100 --batch 128 -o rn50.json
    python -m repro simulate rn50.json --parallelism ddp --num-gpus 4 \\
        --topology ring --bandwidth 234e9 --timeline out.json
    python -m repro sweep sweep.json --workers 4 -o results.json
    python -m repro verify rn50.json --num-gpus 4   # static + graph checks
    python -m repro experiment fig08 --quick        # regenerate a figure

The ``simulate`` command prints the prediction summary and, with
``--memory-check``, the per-GPU memory estimate for the configuration.
``sweep`` reads a declarative spec (base config + axes to cross-product;
see :mod:`repro.service.spec`) and fans the points over worker processes
with result caching.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.config import SimulationConfig
from repro.core.profiler import render_profile
from repro.core.simulator import TrioSim
from repro.core.timeline import export_chrome_trace
from repro.gpus.specs import GPU_SPECS, get_gpu
from repro.memory.estimator import check_fits
from repro.network.routing import routing_names
from repro.network.topology import topology_names
from repro.trace.trace import Trace
from repro.trace.tracer import Tracer
from repro.workloads.registry import MODEL_NAMES, get_model

_EXPERIMENTS = (
    "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "table1", "sensitivity",
    "resilience", "fabric", "all",
)


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    """The simulation-shape arguments (``SimulationConfig.from_cli_args``
    consumes them), shared by ``simulate`` and ``verify``."""
    parser.add_argument("--parallelism", default="ddp",
                        choices=("single", "dp", "ddp", "tp", "pp", "hybrid", "fsdp"))
    parser.add_argument("--num-gpus", type=int, default=1)
    parser.add_argument("--batch", type=int, default=None)
    parser.add_argument("--chunks", type=int, default=1)
    parser.add_argument("--dp-degree", type=int, default=None)
    parser.add_argument("--topology", default="ring",
                        choices=tuple(topology_names()))
    parser.add_argument("--bandwidth", type=float, default=25e9,
                        help="achieved link bandwidth, bytes/s")
    parser.add_argument("--latency", type=float, default=2e-6)
    parser.add_argument("--routing", default="shortest",
                        choices=tuple(routing_names()),
                        help="path choice on multi-path fabrics "
                             "(leaf_spine, fat_tree_clos); inert on "
                             "single-path topologies")
    parser.add_argument("--routing-seed", type=int, default=0,
                        help="hash seed for ecmp/flowlet routing")
    parser.add_argument("--oversubscription", type=float, default=None,
                        help="downlink:uplink capacity ratio for "
                             "fabrics with uplink tiers (leaf_spine)")
    parser.add_argument("--gpu", default=None, choices=sorted(GPU_SPECS),
                        help="target GPU (cross-GPU prediction)")
    parser.add_argument("--tp-scheme", default="layerwise",
                        choices=("layerwise", "megatron"))
    parser.add_argument("--pp-schedule", default="gpipe",
                        choices=("gpipe", "1f1b"))
    parser.add_argument("--slow", action="append", default=[],
                        metavar="GPU=FACTOR",
                        help="per-GPU compute slowdown, e.g. gpu2=1.5")
    parser.add_argument("--iterations", type=int, default=1)
    parser.add_argument("--no-fold", action="store_true",
                        help="simulate every iteration event-by-event "
                             "instead of folding the steady-state tail "
                             "(see docs/performance.md)")
    parser.add_argument("--fold-warmup", type=int, default=None,
                        metavar="K",
                        help="iterations simulated exactly before folding "
                             "engages (default 2)")
    parser.add_argument("--fold-tolerance", type=float, default=None,
                        metavar="REL",
                        help="relative steadiness tolerance between the "
                             "last two warm-up durations (default 1e-9)")
    parser.add_argument("--collective", default="ring",
                        choices=("ring", "tree", "hierarchical"))
    parser.add_argument("--gpus-per-node", type=int, default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="TrioSim reproduction command-line tool"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the workload zoo")

    trace_p = sub.add_parser("trace", help="collect a single-GPU trace")
    trace_p.add_argument("model", choices=MODEL_NAMES)
    trace_p.add_argument("--gpu", default="A100", choices=sorted(GPU_SPECS))
    trace_p.add_argument("--batch", type=int, default=128)
    trace_p.add_argument("--seq-len", type=int, default=128)
    trace_p.add_argument("--inference", action="store_true",
                         help="forward-only trace")
    trace_p.add_argument("-o", "--output", required=True)

    simulate_p = sub.add_parser("simulate", help="run TrioSim on a trace")
    simulate_p.add_argument("trace", help="trace JSON file")
    _add_config_args(simulate_p)
    simulate_p.add_argument("--timeline", default=None,
                            help="write a Chrome trace-event file")
    simulate_p.add_argument("--report", default=None,
                            help="write a self-contained HTML report")
    simulate_p.add_argument("--save-result", default=None, metavar="PATH",
                            help="write the full result as versioned JSON")
    simulate_p.add_argument("--memory-check", action="store_true")
    simulate_p.add_argument("--verify", action="store_true",
                            help="deep-verify the task graph before the "
                                 "run (DV rules: malformed tasks and "
                                 "endpoints, cycles, dead tasks, "
                                 "collective matching, peak memory) and "
                                 "run the sanitizers (SZ rules) and "
                                 "determinism race detectors (RC rules) "
                                 "during it")
    simulate_p.add_argument("--faults", default=None, metavar="SPEC",
                            help="fault spec JSON (stragglers, link "
                                 "degradation, failures + checkpoint-"
                                 "restart); see docs/faults.md")
    simulate_p.add_argument("--profile", action="store_true",
                            help="print the pipeline wall-time breakdown "
                                 "(trace-prep / plan / instancing / "
                                 "engine); see docs/plans.md and "
                                 "docs/performance.md")

    sweep_p = sub.add_parser(
        "sweep", help="run a declarative config sweep (parallel + cached)"
    )
    sweep_p.add_argument("spec", help="sweep spec JSON file")
    sweep_p.add_argument("--workers", type=int, default=None,
                         help="worker processes (default: spec, then CPU count)")
    sweep_p.add_argument("--cache", default=None, metavar="DIR",
                         help="result cache directory (default: spec's)")
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="alias for --deadline-hard (which wins "
                              "when both are given)")
    sweep_p.add_argument("--deadline-soft", type=float, default=None,
                         help="cooperative per-point budget, seconds: the "
                              "engine heartbeat stops the point with a "
                              "PointTimeout error carrying its partial "
                              "progress (default: spec's deadline_soft)")
    sweep_p.add_argument("--deadline-hard", type=float, default=None,
                         help="hard per-point budget, seconds: SIGALRM/"
                              "watchdog kill (default: spec's "
                              "deadline_hard, or its legacy timeout)")
    sweep_p.add_argument("--journal", default=None, metavar="DIR",
                         help="write-ahead journal directory: every "
                              "dispatch and disposition is fsync'd so a "
                              "killed sweep can resume (default: spec's "
                              "journal_dir; see docs/resilience.md)")
    sweep_p.add_argument("--resume", action="store_true",
                         help="replay completed points from the journal "
                              "and re-dispatch only the remainder "
                              "(requires --journal or journal_dir)")
    sweep_p.add_argument("--breaker", action="store_true",
                         help="enable the dispatch circuit breaker: on "
                              "crash/timeout storms remaining points fail "
                              "fast as CircuitOpen, with half-open probes "
                              "before resuming.  The spec's tuned breaker "
                              "settings (window/threshold/...) are kept "
                              "when present; the flag only forces "
                              "enablement (default: spec's breaker "
                              "setting)")
    sweep_p.add_argument("--no-breaker", action="store_true",
                         help="disable the circuit breaker even when the "
                              "spec enables one (overrides --breaker)")
    sweep_p.add_argument("-o", "--output", default=None,
                         help="write all outcomes as a JSON array")
    sweep_p.add_argument("--csv", default=None,
                         help="write label,total_s,cached rows as CSV")
    sweep_p.add_argument("--verify", action="store_true",
                         help="deep-verify each distinct task graph before "
                              "dispatch (VerifyError outcomes) and run the "
                              "sanitizers and determinism race detectors "
                              "on every point")
    sweep_p.add_argument("--plan-cache", default=None, metavar="DIR",
                         help="persist extrapolation plans in DIR so the "
                              "parent builds each distinct plan once and "
                              "workers load it (default: spec's plan_dir, "
                              "else in-memory sharing)")
    sweep_p.add_argument("--no-plan-cache", action="store_true",
                         help="disable extrapolation-plan sharing; every "
                              "point re-runs the extrapolator")

    verify_p = sub.add_parser(
        "verify", help="statically check and deep-verify a trace, plan, "
                       "config, fault spec, or sweep spec"
    )
    verify_p.add_argument("path", nargs="?", default=None,
                          help="JSON file to verify")
    verify_p.add_argument("--kind", default="auto",
                          choices=("auto", "trace", "config", "plan",
                                   "faults", "spec"),
                          help="input kind (default: detect from content)")
    verify_p.add_argument("--format", default="text",
                          choices=("text", "json", "sarif"), dest="fmt")
    verify_p.add_argument("--disable", action="append", default=[],
                          metavar="RULE",
                          help="disable a rule by id or name (repeatable)")
    verify_p.add_argument("--list-rules", action="store_true",
                          help="print the rule catalogue (checking its "
                               "completeness) and exit")
    _add_config_args(verify_p)

    inspect_p = sub.add_parser("inspect", help="summarize or diff traces")
    inspect_p.add_argument("trace", help="trace JSON file")
    inspect_p.add_argument("--diff", default=None, metavar="OTHER",
                           help="second trace to compare against")
    inspect_p.add_argument("--top", type=int, default=10)

    experiment_p = sub.add_parser("experiment",
                                  help="regenerate a paper table/figure")
    experiment_p.add_argument("artifact", choices=_EXPERIMENTS)
    experiment_p.add_argument("--quick", action="store_true")
    experiment_p.add_argument("--runs", type=int, default=10)
    return parser


def _cmd_models() -> int:
    for name in MODEL_NAMES:
        print(get_model(name).summary())
    return 0


def _cmd_trace(args) -> int:
    tracer = Tracer(get_gpu(args.gpu))
    model = get_model(args.model, seq_len=args.seq_len)
    if args.inference:
        trace = tracer.trace_inference(model, args.batch)
    else:
        trace = tracer.trace(model, args.batch)
    trace.save(args.output)
    print(
        f"wrote {args.output}: {len(trace.operators)} operators, "
        f"{trace.total_duration * 1e3:.2f} ms GPU time "
        f"({args.model} @ batch {args.batch} on {args.gpu})"
    )
    return 0


def _cmd_simulate(args) -> int:
    trace = Trace.load(args.trace)
    config = SimulationConfig.from_cli_args(args)
    if args.faults:
        from repro.faults import FaultSpec

        config.faults = FaultSpec.load(args.faults)
    wants_timeline = args.timeline is not None or args.report is not None
    sim = TrioSim(trace, config, record_timeline=wants_timeline,
                  verify=args.verify)
    if args.verify:
        from repro.analysis import AnalysisError, render_text

        try:
            result = sim.run()
        except AnalysisError as exc:
            print(render_text(exc.report, source=args.trace))
            return 1
        print(render_text(sim.verify_report, source="verify"))
        print(f"verify: dispatch-order digest {sim.verify_digest:016x}")
        if sim.verify_report.has_errors:
            return 1
    else:
        result = sim.run()
    print(result.summary())
    if args.profile and result.profile.get("phases"):
        print(render_profile(result.profile))
    if sim.fault_stats is not None:
        s = sim.fault_stats
        print(
            f"faults: {s['straggled_tasks']} straggled tasks, "
            f"{s['link_transitions']} link transitions, "
            f"{s['failures_recovered']} failures recovered, "
            f"{s['checkpoints_taken']} checkpoints, "
            f"{s['total_stall_time'] * 1e3:.2f} ms stalled"
        )
    if args.save_result:
        from pathlib import Path

        Path(args.save_result).write_text(result.to_json())
        print(f"result: versioned JSON -> {args.save_result}")
    if args.timeline:
        count = export_chrome_trace(result, args.timeline)
        print(f"timeline: {count} events -> {args.timeline} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    if args.report:
        from repro.core.report import export_html_report

        bars = export_html_report(result, args.report)
        print(f"report: {bars} timeline bars -> {args.report}")
    if args.memory_check:
        gpu_name = args.gpu or trace.gpu_name
        report = check_fits(
            trace, gpu_name, parallelism=args.parallelism,
            num_gpus=args.num_gpus, batch_size=args.batch,
            chunks=args.chunks, dp_degree=args.dp_degree,
        )
        verdict = "fits" if report["fits"] else "OUT OF MEMORY"
        print(
            f"memory on {gpu_name}: {report['total'] / 1e9:.1f} GB of "
            f"{report['capacity'] / 1e9:.0f} GB — {verdict} "
            f"(params {report['params'] / 1e9:.1f}, "
            f"activations {report['activations'] / 1e9:.1f} GB)"
        )
        if not report["fits"]:
            return 2
    return 0


class _SweepProgress:
    """Hook printing one line per completed sweep point."""

    def func(self, ctx) -> None:
        if ctx.pos != "sweep_point":
            return
        outcome = ctx.item
        d = ctx.detail
        if outcome.ok:
            status = f"total {outcome.result.total_time * 1e3:9.2f} ms"
            if outcome.cached:
                status += "  (cached)"
        else:
            status = f"ERROR {outcome.error.kind}: {outcome.error.message}"
        if outcome.resumed:
            status += "  (resumed)"
        label = outcome.label or f"point {outcome.index}"
        eta = d["eta_seconds"]
        eta_text = (f"  eta {eta:5.1f}s"
                    if eta is not None and d["completed"] < d["total"] else "")
        print(f"[{d['completed']}/{d['total']}] {label:<40} {status}{eta_text}")


def _cmd_sweep(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.analysis.reporters import render_text as _render_text
    from repro.service import (
        CircuitBreaker,
        JournalMismatchError,
        SweepRunner,
        SweepSpec,
    )

    spec_path = Path(args.spec)
    spec = SweepSpec.load(spec_path)
    trace = spec.load_trace(base_dir=spec_path.parent)
    labels, configs = zip(*spec.expand())
    if args.no_plan_cache:
        plan_cache = None
    elif args.plan_cache is not None:
        plan_cache = args.plan_cache
    elif spec.plan_dir is not None:
        plan_cache = spec.plan_dir
    else:
        plan_cache = True
    journal = (args.journal if args.journal is not None
               else spec.journal_dir)
    if args.resume and journal is None:
        print("error: --resume needs a journal (--journal DIR or the "
              "spec's journal_dir)", file=sys.stderr)
        return 2
    # --no-breaker wins; otherwise the spec's tuned breaker dict is
    # honoured even under --breaker (the flag only forces enablement).
    if args.no_breaker:
        breaker = None
    elif isinstance(spec.breaker, dict):
        breaker = CircuitBreaker(**spec.breaker)
    else:
        breaker = bool(spec.breaker) or args.breaker
    # --timeout is the legacy spelling of --deadline-hard.
    hard = (args.deadline_hard if args.deadline_hard is not None
            else args.timeout)
    runner = SweepRunner(
        max_workers=args.workers if args.workers is not None else spec.workers,
        cache=args.cache if args.cache is not None else spec.cache_dir,
        hooks=(_SweepProgress(),),
        verify=args.verify,
        plan_cache=plan_cache,
        deadline_soft=(args.deadline_soft if args.deadline_soft is not None
                       else spec.deadline_soft),
        deadline_hard=(hard if hard is not None else spec.deadline_hard),
        journal=journal,
        resume=args.resume,
        breaker=breaker,
    )
    try:
        outcomes = runner.run(trace, configs, labels=labels)
    except JournalMismatchError as exc:
        print(_render_text(exc.report, source="resume"), file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        metrics = runner.last_metrics
        print(f"\ninterrupted: {metrics.completed}/{metrics.total} points "
              f"done, {metrics.interrupted} marked Interrupted"
              + (" (journaled; rerun with --resume)"
                 if journal is not None else ""),
              file=sys.stderr)
        return 130
    if runner.last_resume_report is not None and len(runner.last_resume_report):
        print(_render_text(runner.last_resume_report, source="resume"),
              file=sys.stderr)
    metrics = runner.last_metrics
    resumed_text = (f"{metrics.resumed} resumed | "
                    if metrics.resumed else "")
    print(
        f"{metrics.total} points in {metrics.elapsed:.2f}s | "
        f"{metrics.cache_hits} cache hits "
        f"({metrics.hit_rate * 100:.0f}%) | " + resumed_text +
        f"{metrics.plan_builds} plan builds, "
        f"{metrics.plan_cache_hits} plan hits | "
        f"{metrics.errors} errors | "
        f"{metrics.events_per_sec:,.0f} simulated events/s"
    )
    if args.verify:
        flagged = sum(len(o.sanitizer_findings) for o in outcomes)
        print(f"verify: {flagged} findings across "
              f"{sum(1 for o in outcomes if o.sanitizer_findings)} points")
    if args.output:
        payload = [o.to_dict() for o in outcomes]
        Path(args.output).write_text(_json.dumps(payload))
        print(f"outcomes: {len(payload)} -> {args.output}")
    if args.csv:
        lines = ["label,total_s,cached,error"]
        for o in outcomes:
            total = f"{o.result.total_time:.9f}" if o.ok else ""
            error = o.error.kind if o.error else ""
            lines.append(f'"{o.label}",{total},{int(o.cached)},{error}')
        Path(args.csv).write_text("\n".join(lines) + "\n")
        print(f"csv: {len(outcomes)} rows -> {args.csv}")
    return 0 if metrics.errors == 0 else 1


def _print_report(report, path: str, kind: str, fmt: str) -> None:
    from repro.analysis import render_json, render_sarif, render_text

    source = f"{path} ({kind})"
    if fmt == "json":
        print(render_json(report, source=source))
    elif fmt == "sarif":
        print(render_sarif(report, source=path))
    else:
        print(render_text(report, source=source))


def _cmd_verify(args) -> int:
    from repro.analysis import (
        DEFAULT_REGISTRY,
        check_catalogue,
        render_catalogue,
        verify_path,
    )

    if args.list_rules:
        print(render_catalogue())
        problems = check_catalogue()
        for problem in problems:
            print(f"catalogue: {problem}", file=sys.stderr)
        return 2 if problems else 0
    if args.path is None:
        print("error: a path to verify is required (or --list-rules)",
              file=sys.stderr)
        return 2
    registry = (DEFAULT_REGISTRY.scoped(disable=args.disable)
                if args.disable else DEFAULT_REGISTRY)
    config = SimulationConfig.from_cli_args(args)
    report, kind, info = verify_path(args.path, kind=args.kind,
                                     config=config, registry=registry)
    _print_report(report, args.path, kind, args.fmt)
    summary = info.get("summary")
    if summary and args.fmt == "text" and not report.has_errors:
        print(f"graph: {summary['tasks']} tasks "
              f"({summary['compute']} compute, {summary['transfer']} "
              f"transfer, {summary['barrier']} barrier) | critical path "
              f"{summary['critical_path_s'] * 1e3:.3f} ms across "
              f"{summary['critical_tasks']} task(s) | peak transfer "
              f"footprint {summary['peak_transfer_bytes'] / 2 ** 20:.1f} MiB")
    return 1 if report.has_errors else 0


def _cmd_inspect(args) -> int:
    from repro.trace.tools import diff, summarize

    trace = Trace.load(args.trace)
    if args.diff:
        other = Trace.load(args.diff)
        print(diff(trace, other).table(top=args.top))
    else:
        print(summarize(trace, top=args.top))
    return 0


def _cmd_experiment(args) -> int:
    import importlib

    artifacts = (
        [a for a in _EXPERIMENTS if a != "all"]
        if args.artifact == "all" else [args.artifact]
    )
    for artifact in artifacts:
        module = importlib.import_module(f"repro.experiments.{artifact}")
        if artifact == "table1":
            result = module.run(quick=True, runs=args.runs)
        else:
            result = module.run(quick=args.quick, runs=args.runs)
        print(result.table())
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "models":
            return _cmd_models()
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "experiment":
            return _cmd_experiment(args)
    except BrokenPipeError:  # e.g. `repro models | head`
        return 0
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
