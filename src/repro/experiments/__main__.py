"""Command-line entry point: regenerate any figure's data as a table.

Usage::

    python -m repro.experiments fig03
    python -m repro.experiments all --trace all.trace.jsonl
    python -m repro.experiments fig04 --jobs 4 --timeout 120 \
        --checkpoint-dir ckpt --resume
    python -m repro.experiments fig03 --shard-dir /shared/run --jobs 4

Per-figure timing runs through the observability tracer
(:mod:`repro.obs`), so a figure that crashes mid-run still reports the
per-stage times it accumulated — and, when ``--trace`` /
``--metrics-out`` is given, still leaves its partial artifacts behind.

Sweeps run under the supervised :class:`SweepExecutor`; exit codes follow
the ``validate`` convention — 0 clean, 1 completed with recoveries
(retries, salvages, steals), 2 incomplete (failed points or an
interrupt).  The per-sweep :class:`SweepReport` is printed to stderr.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import traceback
from pathlib import Path

from repro.experiments import ALL_EXPERIMENTS as FIGURES
from repro.experiments._cli import (
    add_sweep_args,
    executor_from_args,
    print_report,
    run_checkpoint_gc,
    write_report_json,
)
from repro.obs import Instrumentation
from repro.resilience.errors import ShardError, SweepError


def _flush_artifacts(ins: Instrumentation, trace, metrics_out) -> None:
    if trace:
        Path(trace).write_text(ins.tracer.to_jsonl() + "\n")
        print(f"wrote {trace}", file=sys.stderr)
    if metrics_out:
        Path(metrics_out).write_text(ins.metrics.to_prometheus())
        print(f"wrote {metrics_out}", file=sys.stderr)


def _stage_report(ins: Instrumentation) -> str:
    """Compact per-stage summary (used for the crash report)."""
    lines = [f"{'stage':<24}{'count':>8}{'self s':>12}"]
    totals = sorted(
        ins.tracer.stage_totals().items(),
        key=lambda kv: kv[1]["self"],
        reverse=True,
    )
    for name, agg in totals:
        lines.append(f"{name:<24}{int(agg['count']):>8}{agg['self']:>12.4f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's figures as tables.",
    )
    parser.add_argument(
        "figure",
        choices=sorted(FIGURES) + ["all"],
        help="figure to regenerate, or 'all'",
    )
    parser.add_argument(
        "--plot",
        action="store_true",
        help="draw an ASCII chart of the series as well as the table",
    )
    parser.add_argument("--trace", metavar="PATH", default=None,
                        help="write the run's span tree as JSONL")
    parser.add_argument("--metrics-out", metavar="PATH", default=None,
                        help="write metrics in Prometheus text format")
    add_sweep_args(parser)
    args = parser.parse_args(argv)
    if args.checkpoint_gc:
        return run_checkpoint_gc(
            args, parser,
            figure=None if args.figure == "all" else args.figure,
        )
    try:
        executor = executor_from_args(args, parser)
    except ShardError as exc:
        print(f"# shard namespace rejected: {exc}", file=sys.stderr)
        return 2

    names = sorted(FIGURES) if args.figure == "all" else [args.figure]
    ins = Instrumentation.enabled()
    current = None
    rc = 0

    def _print_new_reports() -> None:
        # Reports accumulate on the executor across map() calls (a figure
        # may run several sweeps); print the ones this figure added.
        nonlocal rc, seen
        for report in executor.reports[seen:]:
            rc = max(rc, print_report(report))
        seen = len(executor.reports)

    seen = 0
    try:
        with ins.activate():
            for name in names:
                current = name
                fig = FIGURES[name]
                params = inspect.signature(fig).parameters
                kwargs = {"executor": executor} if "executor" in params else {}
                with ins.tracer.span("experiment", figure=name) as span:
                    result = fig(**kwargs)
                _print_new_reports()
                print(result.format_table())
                if args.plot:
                    from repro.reporting import plot_result

                    print()
                    print(plot_result(result))
                print(f"# computed in {span.wall:.2f}s\n")
    except KeyboardInterrupt:
        # Checkpoints are flushed per point, so the partial report below
        # is exactly what --resume will pick up from.
        _print_new_reports()
        print(f"\n# experiment {current!r} INTERRUPTED "
              "(finished points are journaled; re-run with --resume)",
              file=sys.stderr)
        _flush_artifacts(ins, args.trace, args.metrics_out)
        return 2
    except SweepError as exc:
        _print_new_reports()  # the failed sweep's report is already queued
        print(f"\n# experiment {current!r} FAILED: {exc.reason}: {exc}",
              file=sys.stderr)
        _flush_artifacts(ins, args.trace, args.metrics_out)
        return 2
    except Exception:
        # A crashed figure still reports the per-stage times it reached.
        traceback.print_exc()
        print(f"\n# experiment {current!r} FAILED; partial stage times:",
              file=sys.stderr)
        print(_stage_report(ins), file=sys.stderr)
        _flush_artifacts(ins, args.trace, args.metrics_out)
        return 1
    finally:
        executor.close()
        if args.report_json and executor.reports:
            path = write_report_json(args.report_json, executor.reports)
            print(f"wrote {path}", file=sys.stderr)
    _flush_artifacts(ins, args.trace, args.metrics_out)
    return rc


if __name__ == "__main__":
    sys.exit(main())
