"""Command-line interface.

::

    python -m repro make-spec central --rdisk-scv 10 -o cluster.json
    python -m repro describe cluster.json -K 5
    python -m repro report cluster.json --workstations 5 --tasks 30
    python -m repro validate cluster.json --workstations 5 --tasks 20
    python -m repro experiment fig03 --plot
    python -m repro experiment fig03 --shard-dir /shared/run --jobs 4
    python -m repro sweep-worker fig03 --shard-dir /shared/run
    python -m repro profile cluster.json -K 5 -N 30
    python -m repro serve --port 8278 --max-inflight 8 --queue-depth 32
    python -m repro status --serve http://127.0.0.1:8278

Specs travel as JSON (see :mod:`repro.network.serialize`), so an analysis
is fully reproducible from the file plus the command line.  ``report``,
``validate``, ``experiment`` and ``profile`` accept ``--trace`` /
``--metrics-out`` to archive the run's span tree (JSONL) and metrics
(Prometheus text) — see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path


def _load_spec(path: str):
    from repro.network import spec_from_json

    return spec_from_json(Path(path).read_text())


def _add_obs_args(sub) -> None:
    sub.add_argument("--trace", metavar="PATH", default=None,
                     help="write the run's span tree as JSONL")
    sub.add_argument("--metrics-out", metavar="PATH", default=None,
                     help="write the run's metrics in Prometheus text format")


@contextmanager
def _maybe_instrument(args):
    """Activate instrumentation when --trace/--metrics-out was given.

    Artifacts are flushed on exit even when the command fails, so a
    crashed run still leaves its partial trace behind.
    """
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace and not metrics_out:
        yield None
        return
    from repro.obs import Instrumentation

    ins = Instrumentation.enabled()
    try:
        with ins.activate():
            yield ins
    finally:
        if trace:
            Path(trace).write_text(ins.tracer.to_jsonl() + "\n")
            print(f"wrote {trace}", file=sys.stderr)
        if metrics_out:
            Path(metrics_out).write_text(ins.metrics.to_prometheus())
            print(f"wrote {metrics_out}", file=sys.stderr)


def _cmd_make_spec(args) -> int:
    from repro.clusters import ApplicationModel, central_cluster, distributed_cluster
    from repro.distributions import Shape
    from repro.network import spec_to_json

    app = ApplicationModel(
        compute_fraction=args.compute_fraction,
        local_time=args.local_time,
        remote_time=args.remote_time,
        comm_factor=args.comm_factor,
        cycles=args.cycles,
        remote_fraction=args.remote_fraction,
    )
    shapes = {}
    if args.rdisk_scv != 1.0:
        key = "rdisk" if args.kind == "central" else "disk"
        shapes[key] = Shape.scv(args.rdisk_scv)
    if args.cpu_scv != 1.0:
        shapes["cpu"] = Shape.scv(args.cpu_scv)
    if args.kind == "central":
        spec = central_cluster(app, shapes)
    else:
        spec = distributed_cluster(app, args.workstations, shapes=shapes)
    text = spec_to_json(spec)
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_describe(args) -> int:
    spec = _load_spec(args.spec)
    print(spec.describe())
    if args.workstations is not None:
        from repro.core.transient import TransientModel

        model = TransientModel(spec, args.workstations)
        print()
        print(f"state-space size per level (K={args.workstations}):")
        print(f"{'k':>4}  {'D(k)':>12}")
        dims = [model.level_dim(k) for k in range(args.workstations + 1)]
        for k, d in enumerate(dims):
            print(f"{k:>4}  {d:>12}")
        print(f"{'sum':>4}  {sum(dims):>12}")
    return 0


def _resilience_config(args):
    """Build a ResilienceConfig from the shared --robust CLI knobs."""
    from repro.resilience.budget import Budget
    from repro.resilience.fallback import ResilienceConfig

    return ResilienceConfig(
        budget=Budget(
            max_states=args.max_states,
            max_bytes=args.max_bytes,
            max_seconds=args.max_seconds,
            max_epochs=args.max_epochs,
        ),
    )


def _add_robust_args(sub) -> None:
    sub.add_argument("--robust", action="store_true",
                     help="run through the resilience layer (guards, "
                          "budgets, degradation ladder) and print the "
                          "solver report")
    sub.add_argument("--max-states", type=int, default=None,
                     help="per-level state-space cap (robust mode)")
    sub.add_argument("--max-bytes", type=int, default=None,
                     help="predicted operator/LU memory cap (robust mode)")
    sub.add_argument("--max-seconds", type=float, default=None,
                     help="wall-clock budget for the solve (robust mode)")
    sub.add_argument("--max-epochs", type=int, default=None,
                     help="epoch cap; larger workloads degrade to the "
                          "amva estimate (robust mode)")


def _cmd_report(args) -> int:
    with _maybe_instrument(args):
        return _run_report(args)


def _run_report(args) -> int:
    from repro.reporting import performance_report

    spec = _load_spec(args.spec)
    if args.robust:
        from repro.resilience.errors import SolverError
        from repro.resilience.fallback import solve_resilient

        try:
            result = solve_resilient(
                spec, args.workstations, args.tasks, _resilience_config(args)
            )
        except SolverError as exc:
            print(f"FAIL: {exc.reason}: {exc}")
            return 2
        rep = result.report
        print(f"solver: {rep.summary()}")
        for attempt in rep.attempts:
            print(f"  {attempt}")
        if rep.degraded:
            # The full report machinery assumes an exact solve; print the
            # degraded answer with its honest label instead.
            print(f"mean makespan E(T) [{rep.method}]: {result.makespan:.4f}")
            return 0
    print(
        performance_report(
            spec,
            args.workstations,
            args.tasks,
            include_distribution=not args.no_distribution,
        )
    )
    return 0


def _cmd_validate(args) -> int:
    with _maybe_instrument(args):
        return _run_validate(args)


def _run_validate(args) -> int:
    from repro.validation import cross_validate

    kwargs = {}
    if args.robust:
        kwargs["resilience"] = _resilience_config(args)
    from repro.resilience.errors import SolverError

    try:
        report = cross_validate(
            _load_spec(args.spec),
            args.workstations,
            args.tasks,
            reps=args.reps,
            seed=args.seed,
            **kwargs,
        )
    except SolverError as exc:
        # Solver (or budgeted simulation) failed outright: scriptable
        # nonzero exit with a one-line reason.
        print(f"REASON: {exc.reason}: {exc}")
        return 2
    print(report.summary())
    if report.healthy:
        return 0
    print(f"REASON: {report.failure_reason()}")
    return 2 if report.degraded else 1


def _experiment_argv(args) -> list:
    """Forward every flag set on ``experiment``/``sweep-worker`` to the
    experiments CLI, which defines the same ones (``add_sweep_args``)."""
    argv = [args.name]
    for dest, value in vars(args).items():
        if dest in ("command", "func", "name") or value in (None, False):
            continue
        flag = "--" + dest.replace("_", "-")
        argv += [flag] if value is True else [flag, str(value)]
    return argv


def _cmd_experiment(args) -> int:
    from repro.experiments.__main__ import main as exp_main

    return exp_main(_experiment_argv(args))


def _cmd_sweep_worker(args) -> int:
    """One worker process of a distributed sweep (see docs/ROBUSTNESS.md).

    Thin delegation to the experiments CLI with ``--shard-dir`` required:
    the worker claims points via leases, heartbeats, steals from dead
    peers, and exits with the usual 0/1/2 sweep verdict.
    """
    from repro.experiments.__main__ import main as exp_main

    if not args.shard_dir and not args.checkpoint_gc:
        print("sweep-worker requires --shard-dir (the shared namespace "
              "directory)", file=sys.stderr)
        return 2
    return exp_main(_experiment_argv(args))


def _format_serve_status(doc: dict) -> str:
    """One console block from a daemon's ``/status`` document."""
    adm = doc.get("admission", {})
    cache = doc.get("cache", {})
    lines = [
        f"repro serve status  (schema {doc.get('schema', '?')})",
        f"  ready: {doc.get('ready')}   uptime: "
        f"{doc.get('uptime_seconds', 0):.1f}s   requests: "
        f"{doc.get('requests', 0)}",
        f"  admission: {adm.get('inflight', 0)}/{adm.get('max_inflight', '?')}"
        f" in flight, {adm.get('queued', 0)}/{adm.get('queue_depth', '?')} "
        f"queued (peak {adm.get('max_queue_seen', 0)})",
        f"  admitted: {adm.get('admitted', 0)}   shed: "
        f"{adm.get('shed_total', 0)} {adm.get('shed', {})}   abandoned: "
        f"{adm.get('abandoned', 0)}",
        f"  brownout: {'ON' if adm.get('brownout') else 'off'} "
        f"(watermark {adm.get('brownout_watermark')}, "
        f"{adm.get('brownout_solves', 0)} degraded solves, "
        f"{adm.get('brownout_seconds', 0.0):.1f}s total)   "
        f"downtiered: {adm.get('downtiered', 0)}",
        f"  cache: {cache.get('count', 0)} models, "
        f"{cache.get('hits', 0)} hits / {cache.get('misses', 0)} misses",
    ]
    if doc.get("faults"):
        lines.append(f"  faults armed: {doc['faults']}")
    if adm.get("draining"):
        lines.append("  DRAINING (readyz → 503)")
    return "\n".join(lines)


def _serve_status(args) -> int:
    """`repro status --serve URL`: one daemon's admission/overload view."""
    import json as _json
    import time as _time
    from urllib.parse import urlsplit

    from repro.serve.client import ServeClient

    raw = args.serve if "//" in args.serve else f"http://{args.serve}"
    parts = urlsplit(raw)
    host, port = parts.hostname or "127.0.0.1", parts.port or 8278

    def render() -> dict:
        with ServeClient(host, port) as client:
            doc = client.status()
        if args.json:
            print(_json.dumps(doc, sort_keys=True))
        else:
            print(_format_serve_status(doc))
        return doc

    try:
        if args.watch is None:
            return 0 if render().get("ready") else 1
        while True:
            render()
            _time.sleep(args.watch)
            if not args.json:
                print()
    except KeyboardInterrupt:
        return 0
    except (OSError, RuntimeError) as exc:
        print(f"repro status: {raw} unreachable: {exc}", file=sys.stderr)
        return 2


def _cmd_status(args) -> int:
    """Live fleet console over a shard namespace's telemetry streams."""
    import json as _json
    import time as _time

    if bool(args.shard_dir) == bool(args.serve):
        print("status requires exactly one of --shard-dir DIR (fleet "
              "console) or --serve URL (daemon admission stats)",
              file=sys.stderr)
        return 2
    if args.serve:
        return _serve_status(args)

    from repro.obs.fleet import FleetView

    def render() -> FleetView:
        fleet = FleetView.load(
            args.shard_dir, figure=args.figure, stale_after=args.stale_after
        )
        if args.json:
            print(_json.dumps(fleet.to_dict(), sort_keys=True))
        else:
            print(fleet.format_console())
        return fleet

    if args.watch is None:
        fleet = render()
        return 0 if fleet.workers else 2
    try:
        while True:
            fleet = render()
            doc = fleet.to_dict()
            if fleet.workers and doc["fleet"]["total"] and \
                    doc["fleet"]["done"] >= doc["fleet"]["total"]:
                return 0
            _time.sleep(args.watch)
            if not args.json:
                print()
    except KeyboardInterrupt:
        return 0


def _profile_fleet(args) -> int:
    """`repro profile --merge-telemetry`: fleet trace merge + coverage gate."""
    from repro.obs.fleet import FleetView

    fleet = FleetView.load(args.merge_telemetry, figure=args.name)
    tracer = fleet.merged_tracer()
    if not tracer.spans:
        print(f"no telemetry spans under {args.merge_telemetry} "
              "(fleet ran uninstrumented?)", file=sys.stderr)
        return 2
    totals = tracer.stage_totals()
    print(f"{'stage':<24} {'count':>7} {'wall s':>10} {'self s':>10}")
    for name, agg in sorted(totals.items(), key=lambda kv: -kv[1]["self"]):
        print(f"{name:<24} {int(agg['count']):>7} "
              f"{agg['wall']:>10.4f} {agg['self']:>10.4f}")
    lat = fleet.latency()
    if lat is not None:
        print(f"point latency: p50 {lat['p50'] * 1e3:.2f}ms  "
              f"p95 {lat['p95'] * 1e3:.2f}ms  p99 {lat['p99'] * 1e3:.2f}ms  "
              f"(n={int(lat['count'])})")
    if args.trace:
        Path(args.trace).write_text(tracer.to_jsonl() + "\n")
        print(f"wrote {args.trace}")
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            fleet.merged_metrics().to_prometheus()
        )
        print(f"wrote {args.metrics_out}")
    cov = fleet.coverage()
    if cov is None:
        print("fleet span coverage: unknown (no busy time recorded)")
        return 0
    print(f"fleet span coverage: {cov:.1%}")
    if cov < 0.95:
        print(f"WARNING: fleet span coverage {cov:.1%} below 95% of "
              "busy wall", file=sys.stderr)
        return 1
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import profile_spec, write_bench

    if args.merge_telemetry:
        return _profile_fleet(args)
    if not args.spec or args.workstations is None or args.tasks is None:
        print("profile requires a spec plus -K/-N "
              "(or --merge-telemetry DIR)", file=sys.stderr)
        return 2
    spec = _load_spec(args.spec)
    resilience = _resilience_config(args) if args.robust else None
    name = args.name or Path(args.spec).stem
    result = profile_spec(
        spec,
        args.workstations,
        args.tasks,
        repeats=args.repeats,
        name=name,
        resilience=resilience,
        propagation=args.propagation,
    )
    print(result.format_table())
    for path in result.write_artifacts(
        trace_path=args.trace,
        metrics_path=args.metrics_out,
        metrics_json_path=args.metrics_json,
        report_json_path=args.report_json,
    ):
        print(f"wrote {path}")
    bench = write_bench(args.bench_out, [result.bench_record()],
                        source="repro profile")
    print(f"wrote {bench}")
    if result.coverage < 0.95:
        print(f"WARNING: span coverage {result.coverage:.1%} below 95% "
              "of end-to-end wall", file=sys.stderr)
        return 1
    return 0


def _cmd_serve(args) -> int:
    from repro.resilience.faults import ServeFaultPlan
    from repro.serve.admission import AdmissionConfig
    from repro.serve.daemon import run_daemon

    try:
        drill = ServeFaultPlan.parse(args.drill) if args.drill else None
        admission = AdmissionConfig(
            max_inflight=(args.max_inflight if args.max_inflight is not None
                          else max(1, args.threads)),
            queue_depth=args.queue_depth,
            queue_deadline=args.queue_deadline,
            brownout_watermark=args.brownout_watermark,
            max_query_states=args.admit_max_states,
            max_query_bytes=args.admit_max_bytes,
            retry_after=args.retry_after,
        )
    except ValueError as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    return run_daemon(
        args.host,
        args.port,
        cache_bytes=args.cache_bytes,
        threads=args.threads,
        deadline=args.deadline,
        shard_dir=args.shard_dir,
        port_file=args.port_file,
        pid_file=args.pid_file,
        admission=admission,
        drill=drill,
        drill_endpoint=args.drill_endpoint,
        drain_grace=args.drain_grace,
        keepalive_requests=args.keepalive_requests,
        keepalive_idle=args.keepalive_idle,
        metrics_out=args.metrics_out,
    )


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Transient finite-workload analysis of cluster systems.",
    )
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    mk = sub.add_parser("make-spec", help="build a cluster spec JSON")
    mk.add_argument("kind", choices=["central", "distributed"])
    mk.add_argument("--workstations", "-K", type=int, default=5,
                    help="workstation count (distributed topology only)")
    mk.add_argument("--compute-fraction", type=float, default=0.5)
    mk.add_argument("--local-time", type=float, default=8.0)
    mk.add_argument("--remote-time", type=float, default=3.0)
    mk.add_argument("--comm-factor", type=float, default=1.0 / 3.0)
    mk.add_argument("--cycles", type=float, default=10.0)
    mk.add_argument("--remote-fraction", type=float, default=0.4)
    mk.add_argument("--rdisk-scv", type=float, default=1.0,
                    help="C² of the shared storage service time")
    mk.add_argument("--cpu-scv", type=float, default=1.0)
    mk.add_argument("--output", "-o", default=None)
    mk.set_defaults(func=_cmd_make_spec)

    de = sub.add_parser("describe", help="summarize a spec JSON")
    de.add_argument("spec")
    de.add_argument("--workstations", "-K", type=int, default=None,
                    help="also print the per-level state-space table D(k)")
    de.set_defaults(func=_cmd_describe)

    rp = sub.add_parser("report", help="full performance report")
    rp.add_argument("spec")
    rp.add_argument("--workstations", "-K", type=int, required=True)
    rp.add_argument("--tasks", "-N", type=int, required=True)
    rp.add_argument("--no-distribution", action="store_true",
                    help="skip makespan variance/quantiles (faster)")
    _add_robust_args(rp)
    _add_obs_args(rp)
    rp.set_defaults(func=_cmd_report)

    va = sub.add_parser("validate", help="cross-check model vs simulation")
    va.add_argument("spec")
    va.add_argument("--workstations", "-K", type=int, required=True)
    va.add_argument("--tasks", "-N", type=int, required=True)
    va.add_argument("--reps", type=int, default=2000)
    va.add_argument("--seed", type=int, default=0)
    _add_robust_args(va)
    _add_obs_args(va)
    va.set_defaults(func=_cmd_validate)

    ex = sub.add_parser("experiment", help="regenerate a paper figure")
    ex.add_argument("name")
    ex.add_argument("--plot", action="store_true")
    # Shared sweep-supervision flags (--jobs with real validation,
    # --timeout/--retries/--checkpoint-dir/--resume/--drill) — one
    # definition for both CLIs, so `--jobs 0` is a parser error here too.
    from repro.experiments._cli import add_sweep_args

    add_sweep_args(ex)
    _add_obs_args(ex)
    ex.set_defaults(func=_cmd_experiment)

    sw = sub.add_parser(
        "sweep-worker",
        help="join a distributed sweep as one worker process "
             "(lease-claimed points over a shared --shard-dir)",
    )
    sw.add_argument("name", help="figure to sweep (or 'all')")
    add_sweep_args(sw)
    _add_obs_args(sw)
    sw.set_defaults(func=_cmd_sweep_worker)

    st = sub.add_parser(
        "status",
        help="live fleet console: per-worker progress, leases, steals, "
             "throughput, ETA and latency percentiles from a shard "
             "namespace's telemetry streams",
    )
    st.add_argument("--shard-dir", metavar="DIR", default=None,
                    help="the shared shard namespace directory")
    st.add_argument("--serve", metavar="URL", default=None,
                    help="instead of a fleet, show a serve daemon's "
                         "admission/overload stats from GET /status "
                         "(e.g. http://127.0.0.1:8278)")
    st.add_argument("--figure", default=None,
                    help="only show workers sweeping this figure")
    st.add_argument("--json", action="store_true",
                    help="emit one status JSON document "
                         "(repro-fleet-status/1 or repro-serve-status/2)")
    st.add_argument("--watch", nargs="?", type=float, const=2.0,
                    default=None, metavar="SECS",
                    help="re-render every SECS (default 2) until the "
                         "sweep completes or Ctrl-C")
    st.add_argument("--stale-after", type=float, default=10.0,
                    help="seconds without telemetry before a worker "
                         "counts as stalled (default 10)")
    st.set_defaults(func=_cmd_status)

    pf = sub.add_parser(
        "profile",
        help="instrumented solve: per-stage cost table + trace/metrics/"
             "BENCH artifacts",
    )
    pf.add_argument("spec", nargs="?", default=None)
    pf.add_argument("--workstations", "-K", type=int, default=None)
    pf.add_argument("--tasks", "-N", type=int, default=None)
    pf.add_argument("--merge-telemetry", metavar="DIR", default=None,
                    help="instead of solving, merge a shard namespace's "
                         "worker telemetry into one wall-clock-aligned "
                         "fleet trace (stage table, latency percentiles, "
                         "span-coverage gate); --name filters the figure, "
                         "--trace/--metrics-out write the merged artifacts")
    pf.add_argument("--repeats", type=int, default=5,
                    help="cold solves to time (median is reported)")
    pf.add_argument("--name", default=None,
                    help="workload name in BENCH_transient.json "
                         "(default: spec file stem)")
    pf.add_argument("--trace", metavar="PATH", default="profile.trace.jsonl")
    pf.add_argument("--metrics-out", metavar="PATH",
                    default="profile.metrics.prom")
    pf.add_argument("--metrics-json", metavar="PATH", default=None,
                    help="also write the metrics as JSON")
    pf.add_argument("--report-json", metavar="PATH", default=None,
                    help="also write the run's sweep reports (per-point "
                         "status/attempts) as JSON next to trace/metrics")
    pf.add_argument("--bench-out", metavar="PATH",
                    default="BENCH_transient.json")
    _add_robust_args(pf)
    pf.add_argument("--propagation", choices=("propagator", "spectral"),
                    default="propagator",
                    help="epoch engine of the profiled model: 'propagator' "
                         "(default; LU-stepped walk) or 'spectral' (closed-form "
                         "eigendecomposition — refill cost independent of "
                         "N); ignored with --robust")
    pf.set_defaults(func=_cmd_profile)

    from repro.serve.cache import DEFAULT_CACHE_BYTES

    sv = sub.add_parser(
        "serve",
        help="solver-as-a-service HTTP daemon: solve/solve_many over a "
             "content-addressed warm-model cache, plus status and "
             "Prometheus metrics",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=8278,
                    help="listen port (0 = pick a free one; see "
                         "--port-file)")
    sv.add_argument("--port-file", metavar="PATH", default=None,
                    help="write the bound port here once listening "
                         "(for --port 0 and test harnesses)")
    sv.add_argument("--pid-file", metavar="PATH", default=None,
                    help="write the daemon's PID here once listening "
                         "(for clean-shutdown supervision)")
    sv.add_argument("--cache-bytes", type=int, default=DEFAULT_CACHE_BYTES,
                    help="model-cache byte budget before LRU eviction "
                         f"(default {DEFAULT_CACHE_BYTES >> 20} MiB)")
    sv.add_argument("--threads", type=int, default=4,
                    help="solver thread-pool width (default 4)")
    sv.add_argument("--deadline", type=float, default=None,
                    help="default per-request deadline in seconds "
                         "(requests may set their own; exceeded → 504)")
    sv.add_argument("--shard-dir", metavar="DIR", default=None,
                    help="also surface this shard namespace's fleet "
                         "document under /status")
    # -- overload control (docs/ROBUSTNESS.md) -------------------------
    sv.add_argument("--max-inflight", type=int, default=None,
                    help="solves admitted to the pool at once "
                         "(default: --threads)")
    sv.add_argument("--queue-depth", type=int, default=16,
                    help="bounded admission wait queue; arrivals past it "
                         "are shed with 429 (default 16)")
    sv.add_argument("--queue-deadline", type=float, default=2.0,
                    help="longest a request may wait for a slot before "
                         "being shed with 503 (default 2s)")
    sv.add_argument("--brownout-watermark", type=int, default=None,
                    help="queue depth past which makespan solves brown "
                         "out onto the cheap ladder rungs (203 answers); "
                         "default: brownout disabled")
    sv.add_argument("--admit-max-states", type=int, default=None,
                    help="reject (or down-tier) specs whose predicted "
                         "peak level dimension D_RP(k) exceeds this")
    sv.add_argument("--admit-max-bytes", type=int, default=None,
                    help="reject (or down-tier) specs whose predicted "
                         "operator + LU bytes exceed this")
    sv.add_argument("--retry-after", type=float, default=1.0,
                    help="Retry-After hint (seconds) on shed responses "
                         "(default 1)")
    sv.add_argument("--drain-grace", type=float, default=5.0,
                    help="seconds SIGTERM waits for in-flight solves "
                         "before hard exit (default 5)")
    sv.add_argument("--keepalive-requests", type=int, default=100,
                    help="requests served per connection before close "
                         "(default 100)")
    sv.add_argument("--keepalive-idle", type=float, default=5.0,
                    help="idle seconds before a kept-alive connection "
                         "closes (default 5)")
    sv.add_argument("--metrics-out", metavar="PATH", default=None,
                    help="flush final Prometheus metrics here on drain")
    sv.add_argument("--drill", metavar="SPEC", default=None,
                    help="arm a service-fault plan at startup, e.g. "
                         "'slow-solve@0.3,error-burst@10' (drills only)")
    sv.add_argument("--drill-endpoint", action="store_true",
                    help="enable POST /drill to swap the fault plan at "
                         "runtime (drills only; off by default)")
    sv.set_defaults(func=_cmd_serve)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
