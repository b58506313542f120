"""Command-line interface: regenerate any paper experiment.

Usage::

    python -m repro list
    python -m repro run fig3
    python -m repro run all --jobs 4
    python -m repro report
    python -m repro spans
    python -m repro stats
    python -m repro stats --prom
    python -m repro serve --port 8321 --event-log runs/flight.jsonl
    python -m repro flight --log runs/flight.jsonl
    python -m repro export fig8 /tmp/fig8.csv
    python -m repro export --format perfetto fig3.ph1-b32-fp32 /tmp/t.json
    python -m repro export --format perfetto --passes fuse_elementwise \
        fig3.ph1-b32-fp32 /tmp/fused.json
    python -m repro passes
    python -m repro trace fig3.ph1-b32-fp32 --passes fuse_elementwise
    python -m repro cache info
    python -m repro info

Every ``run`` writes a JSON manifest under ``runs/`` recording
per-experiment wall-clock, cache hits/misses, kernel counts and
paper-band verdicts; ``repro report`` summarizes the most recent one.
"""

from __future__ import annotations

import argparse
import sys


def _build_parser() -> argparse.ArgumentParser:
    from repro.experiments.sweeps import GRID_MODELS, GRID_PRECISIONS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Demystifying BERT: System Design "
                    "Implications' (IISWC 2022)")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list available experiments")

    run = commands.add_parser("run", help="run an experiment (or 'all')")
    run.add_argument("experiment", help="experiment id, e.g. fig3, or 'all'")
    run.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                     help="worker processes for batch runs (default 1)")
    run.add_argument("--fresh", action="store_true",
                     help="recompute even if a cached result exists")
    run.add_argument("--no-manifest", action="store_true",
                     help="skip writing the runs/<timestamp>.json manifest")
    run.add_argument("--resume", action="store_true",
                     help="re-execute only the experiments the most "
                          "recent manifest records as failed or missing")
    run.add_argument("--faults", default=None, metavar="SPEC",
                     help="seeded chaos plan injected at the runner's "
                          "fault sites, e.g. "
                          "'worker.kill:0.2,cache.corrupt:0.1,"
                          "compute.slow:50ms' (see docs/robustness.md)")
    run.add_argument("--fault-seed", type=int, default=0, metavar="N",
                     help="fault-plan seed (default 0); same seed, same "
                          "injection schedule")

    export = commands.add_parser(
        "export",
        help="write an experiment's rows as CSV, or an operating "
             "point's kernel timeline as Perfetto/Chrome-trace JSON")
    export.add_argument("experiment",
                        help="experiment id (csv), operating-point id such "
                             "as fig3.ph1-b32-fp32, or fig11 (perfetto)")
    export.add_argument("path", help="destination file")
    export.add_argument("--format", choices=("csv", "perfetto"),
                        default="csv", dest="fmt",
                        help="output format (default csv)")
    export.add_argument("--passes", default=None, metavar="SPEC",
                        help="trace-rewrite pipeline applied before a "
                             "perfetto point export, e.g. "
                             "'fuse_elementwise,checkpointing:4' "
                             "(see `repro passes`)")

    trace = commands.add_parser(
        "trace",
        help="build one operating point's kernel trace and summarize it")
    trace.add_argument("point",
                       help="operating-point id, e.g. fig3.ph1-b32-fp32 or "
                            "tiny.ph1-b2-fp32")
    trace.add_argument("--passes", default=None, metavar="SPEC",
                       help="trace-rewrite pipeline applied before "
                            "summarizing, e.g. 'fuse_elementwise' "
                            "(see `repro passes`)")

    grid = commands.add_parser(
        "grid",
        help="sweep a (batch, seq-len, precision) grid through the "
             "batched grid engine")
    grid.add_argument("--model", default="bert-large",
                      choices=tuple(GRID_MODELS),
                      help="architecture to sweep (default bert-large)")
    grid.add_argument("--batch-sizes", default="4,16,32", metavar="B,B,...",
                      help="comma-separated batch sizes (default 4,16,32)")
    grid.add_argument("--seq-lens", default="128,512", metavar="N,N,...",
                      help="comma-separated sequence lengths "
                           "(default 128,512)")
    grid.add_argument("--precisions", default="fp32", metavar="P,P,...",
                      help=f"comma-separated from "
                           f"{','.join(GRID_PRECISIONS)} (default fp32)")
    grid.add_argument("--csv", default=None, metavar="PATH",
                      help="also write the rows as CSV")

    serve = commands.add_parser(
        "serve",
        help="run the async profiling server (HTTP JSON over the engine)")
    serve.add_argument("--port", type=int, default=8321,
                       help="TCP port (default 8321; 0 picks a free port)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--workers", type=int, default=4, metavar="N",
                       help="worker threads for engine computations "
                            "(default 4)")
    serve.add_argument("--queue-limit", type=int, default=32, metavar="N",
                       help="max queued+running computations before "
                            "shedding with 503 (default 32)")
    serve.add_argument("--hot-cache-mb", type=int, default=64, metavar="MB",
                       help="in-process response cache budget (default 64)")
    serve.add_argument("--flight-slots", type=int, default=256, metavar="N",
                       help="completed requests kept in the flight "
                            "recorder ring (default 256)")
    serve.add_argument("--event-log", default=None, metavar="PATH",
                       help="append every completed request as one JSON "
                            "line to PATH (inspect with `repro flight`)")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="seeded chaos plan injected at the serve "
                            "fault sites, e.g. 'serve.fail:0.2,"
                            "serve.slow:10ms'")
    serve.add_argument("--fault-seed", type=int, default=0, metavar="N",
                       help="fault-plan seed (default 0)")

    flight = commands.add_parser(
        "flight",
        help="inspect a flight-recorder event log written by "
             "`repro serve --event-log`")
    flight.add_argument("--log", required=True, metavar="PATH",
                        help="JSONL event log to read")
    flight.add_argument("--last", type=int, default=20, metavar="N",
                        help="show the last N requests (default 20; "
                             "0 shows all)")
    flight.add_argument("--trace", default=None, metavar="TRACE_ID",
                        help="print one request's full span tree instead "
                             "of the listing")

    commands.add_parser(
        "passes", help="list the registered trace-rewrite passes")

    for name, summary in (
            ("report", "summarize the most recent run manifest"),
            ("spans", "span timing summary of a run manifest"),
            ("stats", "metrics (counters/hit rates) of a run manifest")):
        manifest = commands.add_parser(name, help=summary)
        manifest.add_argument("--run", metavar="PATH", default=None,
                              help="manifest file (default: latest under "
                                   "runs/)")
        if name == "stats":
            manifest.add_argument(
                "--prom", action="store_true",
                help="render the manifest's metrics in Prometheus text "
                     "exposition format instead of a table")

    cache = commands.add_parser(
        "cache", help="inspect or clear the result cache")
    cache.add_argument("action", choices=("info", "clear"),
                       help="'info' prints location/size, 'clear' empties it")

    commands.add_parser("info", help="model/device summary")
    return parser


def _cmd_list() -> int:
    from repro.experiments.registry import REGISTRY

    if not REGISTRY:
        print("no experiments registered")
        return 0
    width = max(len(eid) for eid in REGISTRY)
    for eid, experiment in REGISTRY.items():
        print(f"{eid.ljust(width)}  {experiment.description}")
    return 0


def _activate_faults(spec: str | None, seed: int) -> int:
    """Install (and export to the environment) a chaos plan; 0 on ok."""
    if spec is None:
        return 0
    from repro import faults

    try:
        plan = faults.FaultPlan.parse(spec, seed=seed)
    except ValueError as error:
        print(f"bad --faults spec: {error}", file=sys.stderr)
        return 2
    faults.export_to_env(plan)  # --jobs N workers inherit the plan
    faults.activate(plan)
    print(f"fault plan active: {plan.spec()} (seed {plan.seed})",
          file=sys.stderr)
    return 0


def _cmd_run(experiment_id: str, jobs: int, write_manifest: bool,
             fresh: bool, resume: bool = False,
             faults_spec: str | None = None, fault_seed: int = 0) -> int:
    from repro.experiments.registry import REGISTRY
    from repro.runner import cache as result_cache
    from repro.runner.executor import run_experiments
    from repro.runner.manifest import (build_manifest, latest_manifest_path,
                                       load_manifest, resume_ids)
    from repro.runner.manifest import write_manifest as write_manifest_file

    if _activate_faults(faults_spec, fault_seed):
        return 2

    if experiment_id == "all":
        ids = list(REGISTRY)
    elif experiment_id in REGISTRY:
        ids = [experiment_id]
    else:
        print(f"unknown experiment {experiment_id!r}", file=sys.stderr)
        print(f"valid ids: {', '.join(sorted(REGISTRY))} (or 'all')",
              file=sys.stderr)
        return 2

    if resume:
        previous = latest_manifest_path()
        if previous is None:
            print("--resume: no previous manifest; running everything",
                  file=sys.stderr)
        else:
            try:
                remaining = resume_ids(load_manifest(previous), ids)
            except ValueError as error:
                print(f"--resume: {error}", file=sys.stderr)
                return 2
            skipped = len(ids) - len(remaining)
            print(f"--resume from {previous}: {skipped} already complete, "
                  f"{len(remaining)} to run", file=sys.stderr)
            if not remaining:
                print("nothing to resume; all requested experiments "
                      "completed")
                return 0
            ids = remaining

    results = run_experiments(ids, jobs=jobs, use_result_cache=not fresh)

    # stdout carries only deterministic content (experiment reports and
    # pass/fail identities), so two invocations of the same tree diff
    # clean; timings and the manifest path go to stderr.
    for result in results:
        title = f"{result.experiment_id}: " \
                f"{REGISTRY[result.experiment_id].description}"
        print(f"\n{title}\n{'-' * len(title)}")
        if result.ok:
            print(result.output)
        else:
            print("FAILED")
            print(f"{result.experiment_id} failed after "
                  f"{result.duration_s:.2f}s:\n{result.error}",
                  file=sys.stderr)

    failures = [r.experiment_id for r in results if not r.ok]
    if len(results) > 1 or failures:
        total = sum(r.duration_s for r in results)
        print(f"\n{len(results) - len(failures)}/{len(results)} experiments "
              f"succeeded"
              + (f"; FAILED: {', '.join(failures)}" if failures else ""))
        print(f"total wall-clock: {total:.2f}s", file=sys.stderr)

    if write_manifest:
        active_cache = result_cache.get_cache()
        manifest = build_manifest(
            results, jobs=jobs, command=f"run {experiment_id}",
            cache_stats=active_cache.stats,
            cache_dir=str(active_cache.root))
        path = write_manifest_file(manifest)
        print(f"manifest: {path}", file=sys.stderr)

    return 1 if failures else 0


def _cmd_export_perfetto(target: str, path: str,
                         passes_spec: str | None = None) -> int:
    from repro.experiments.points import POINT_REGISTRY, resolve_point
    from repro.experiments.sweeps import write_output

    if target == "fig11":
        if passes_spec:
            print("--passes applies to operating-point exports, not fig11",
                  file=sys.stderr)
            return 2

        def render() -> bytes:
            from repro.experiments import fig11
            from repro.obs.timeline_export import \
                device_timelines_to_chrome_trace
            from repro.serve.service import render_json
            return render_json(device_timelines_to_chrome_trace(fig11.run()))
    elif target in POINT_REGISTRY:
        from repro.trace.passes import build_pipeline
        model, training = resolve_point(target)
        manager = None
        label = f"{model.name} {training.label}"
        if passes_spec:
            try:
                manager = build_pipeline(passes_spec)
            except (KeyError, ValueError) as error:
                print(str(error.args[0] if error.args else error),
                      file=sys.stderr)
                return 2
            label += f" [{manager.signature}]"

        def render() -> bytes:
            from repro.experiments.common import run_point
            from repro.obs.timeline_export import render_profile_trace
            _, profile = run_point(model, training, passes=manager)
            return render_profile_trace(profile, label=label)
    else:
        print(f"unknown perfetto export target {target!r}; valid targets: "
              f"{', '.join(sorted(POINT_REGISTRY))}, fig11",
              file=sys.stderr)
        return 2
    try:
        write_output(path, render)
    except OSError as error:
        return _cannot_write(path, error)
    except ValueError as error:  # a pass pipeline rejected the trace
        print(str(error.args[0] if error.args else error), file=sys.stderr)
        return 2
    print(f"wrote {path} (open in ui.perfetto.dev)")
    return 0


def _cannot_write(path: str, error: OSError) -> int:
    """One stderr line for an output file the CLI could not write."""
    print(f"cannot write {path}: {error.strerror or error}", file=sys.stderr)
    return 2


def _cmd_manifest(command: str, run_path: str | None,
                  prom: bool = False) -> int:
    """``repro report`` / ``spans`` / ``stats``: render one run manifest."""
    from pathlib import Path

    from repro.runner import manifest as manifests

    path = Path(run_path) if run_path else manifests.latest_manifest_path()
    if path is None or not path.is_file():
        where = run_path if run_path else f"{manifests.runs_dir()}/"
        print(f"no run manifest found at {where}; "
              "run `repro run all` first", file=sys.stderr)
        return 1
    try:
        manifest = manifests.load_manifest(path)
    except ValueError as error:
        print(error, file=sys.stderr)
        return 1
    if prom:
        from repro.obs.prometheus import render_prometheus
        snapshot = (manifest.get("observability") or {}).get("metrics") or {}
        if not snapshot:
            print("no metrics recorded in this manifest", file=sys.stderr)
            return 1
        print(render_prometheus(snapshot), end="")
        return 0
    render = {"report": manifests.render_manifest,
              "spans": manifests.render_spans,
              "stats": manifests.render_stats}[command]
    print(render(manifest))
    return 0


def _cmd_flight(log_path: str, last: int, trace_id: str | None) -> int:
    from repro.obs.flight import (read_event_log, render_flight_table,
                                  render_trace_tree)

    if last < 0:
        print("--last must be >= 0 (0 shows all)", file=sys.stderr)
        return 2
    try:
        records = read_event_log(log_path)
    except OSError as error:
        print(f"cannot read event log: {error}", file=sys.stderr)
        return 1
    if trace_id is not None:
        matches = [r for r in records if r.get("trace_id") == trace_id]
        if not matches:
            print(f"trace {trace_id!r} not in {log_path}", file=sys.stderr)
            return 1
        print(render_trace_tree(matches[-1]))
        return 0
    print(render_flight_table(records, last=last))
    return 0


def _cmd_cache(action: str) -> int:
    from repro.runner.cache import get_cache

    cache = get_cache()
    if action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    entries = cache.entries()
    print(f"cache directory: {cache.root}")
    print(f"entries: {len(entries)}")
    print(f"size: {cache.size_bytes() / 1e6:.2f} MB")
    print("clear with `repro cache clear` (or delete the directory)")
    return 0


def _cmd_trace(point: str, passes_spec: str | None = None) -> int:
    from repro.experiments.points import resolve_point
    from repro.trace.bert_trace import iteration_trace
    from repro.trace.passes import build_pipeline

    try:
        model, training = resolve_point(point)
        manager = build_pipeline(passes_spec) if passes_spec else None
    except (KeyError, ValueError) as error:
        print(str(error.args[0] if error.args else error), file=sys.stderr)
        return 2

    trace = iteration_trace(model, training)
    source = "layer-templated builder"
    if manager is not None:
        try:
            trace = manager.run(trace)
        except ValueError as error:
            print(str(error.args[0] if error.args else error),
                  file=sys.stderr)
            return 2
        source += f" + passes [{manager.signature}]"

    gemms = int(trace.table.is_gemm.sum())
    print(f"{point}: {model.name} {training.label}")
    print(f"source: {source}")
    print(f"kernels: {len(trace)} ({gemms} gemms)")
    print(f"total flops: {trace.total_flops:,}")
    print(f"total bytes: {trace.total_bytes:,}")
    return 0


def _cmd_grid(model_name: str, batch_sizes: str, seq_lens: str,
              precisions: str, csv_path: str | None) -> int:
    from repro.experiments.sweeps import (GRID_MODELS, cross_product,
                                          grid_sweep, parse_grid_axes,
                                          rows_to_csv, write_output)
    from repro.report.tables import format_percent, format_table

    try:
        axes = parse_grid_axes(*(
            [value for value in axis.split(",") if value]
            for axis in (batch_sizes, seq_lens, precisions)))
    except ValueError as error:
        print(f"bad grid axis: {error}", file=sys.stderr)
        return 2

    model, points = GRID_MODELS[model_name], cross_product(*axes)
    if csv_path:
        rows: list = []

        def render() -> bytes:
            rows.extend(grid_sweep(model, points))
            return rows_to_csv(rows).encode()

        try:
            write_output(csv_path, render)
        except OSError as error:
            return _cannot_write(csv_path, error)
    else:
        rows = grid_sweep(model, points)
    table = []
    for row in rows:
        if "error" in row:
            table.append((row["label"], row["tokens"], "FAILED",
                          row["error"], "", ""))
            continue
        table.append((row["label"], row["tokens"],
                      f"{row['total_time_s'] * 1e3:.2f} ms",
                      format_percent(row["transformer"]),
                      format_percent(row["optimizer"]),
                      format_percent(row["output"])))
    print(f"{model_name}: {len(rows)} points, one stamped grid")
    print(format_table(("point", "tokens", "iteration", "transformer",
                        "optimizer", "output"), table))
    if csv_path:
        print(f"wrote {csv_path}")
    failures = sum(1 for row in rows if "error" in row)
    return 1 if failures else 0


def _cmd_serve(host: str, port: int, *, workers: int, queue_limit: int,
               hot_cache_mb: int, flight_slots: int,
               event_log: str | None, faults_spec: str | None = None,
               fault_seed: int = 0) -> int:
    from repro.serve import App, HotCache, run_server

    if workers <= 0 or queue_limit <= 0 or hot_cache_mb <= 0 \
            or flight_slots <= 0:
        print("--workers, --queue-limit, --hot-cache-mb and --flight-slots "
              "must be positive", file=sys.stderr)
        return 2
    if _activate_faults(faults_spec, fault_seed):
        return 2
    app = App(workers=workers, queue_limit=queue_limit,
              hot_cache=HotCache(hot_cache_mb * 1024 * 1024),
              flight_capacity=flight_slots, event_log=event_log)
    run_server(app, host=host, port=port)
    return 0


def _cmd_passes() -> int:
    from repro.trace.passes import available_passes

    registry = available_passes()
    width = max(len(name) for name in registry)
    for name in sorted(registry):
        print(f"{name.ljust(width)}  {registry[name][0]}")
    print("\ncompose with `repro export --format perfetto "
          "--passes name[:arg],name ...`")
    return 0


def _cmd_info() -> int:
    from repro.config import BERT_BASE, BERT_LARGE, C3
    from repro.hw.device import default_device
    from repro.ops.base import DType

    device = default_device()
    print("models:")
    for config in (BERT_BASE, BERT_LARGE, C3):
        print(f"  {config.name:12s} N={config.num_layers:3d} "
              f"d={config.d_model:5d} h={config.num_heads:3d} "
              f"params={config.total_parameters() / 1e6:7.1f}M")
    print(f"device: {device.name}")
    print(f"  FP32 GEMM effective peak: "
          f"{device.gemm_engine(DType.FP32).effective_peak / 1e12:.1f} "
          "TFLOP/s")
    print(f"  FP16 GEMM effective peak: "
          f"{device.gemm_engine(DType.FP16).effective_peak / 1e12:.1f} "
          "TFLOP/s")
    print(f"  memory bandwidth: {device.mem_bandwidth_gbps:.0f} GB/s")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except BrokenPipeError:
        # Downstream closed the pipe (`repro report | head`): exit
        # quietly like any well-behaved CLI.  Point stdout at devnull so
        # interpreter-shutdown flushing doesn't raise again.
        import os
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, jobs=args.jobs,
                        write_manifest=not args.no_manifest,
                        fresh=args.fresh, resume=args.resume,
                        faults_spec=args.faults,
                        fault_seed=args.fault_seed)
    if args.command == "export":
        if args.fmt == "perfetto":
            return _cmd_export_perfetto(args.experiment, args.path,
                                        args.passes)
        if args.passes:
            print("--passes requires --format perfetto", file=sys.stderr)
            return 2
        from repro.experiments.sweeps import export_experiment_csv
        try:
            export_experiment_csv(args.experiment, args.path)
        except (KeyError, TypeError) as error:
            print(str(error), file=sys.stderr)
            return 2
        except OSError as error:
            return _cannot_write(args.path, error)
        print(f"wrote {args.path}")
        return 0
    if args.command in ("report", "spans", "stats"):
        return _cmd_manifest(args.command, args.run,
                             prom=getattr(args, "prom", False))
    if args.command == "flight":
        return _cmd_flight(args.log, args.last, args.trace)
    if args.command == "cache":
        return _cmd_cache(args.action)
    if args.command == "trace":
        return _cmd_trace(args.point, args.passes)
    if args.command == "grid":
        return _cmd_grid(args.model, args.batch_sizes, args.seq_lens,
                         args.precisions, args.csv)
    if args.command == "serve":
        return _cmd_serve(args.host, args.port, workers=args.workers,
                          queue_limit=args.queue_limit,
                          hot_cache_mb=args.hot_cache_mb,
                          flight_slots=args.flight_slots,
                          event_log=args.event_log,
                          faults_spec=args.faults,
                          fault_seed=args.fault_seed)
    if args.command == "passes":
        return _cmd_passes()
    if args.command == "info":
        return _cmd_info()
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
