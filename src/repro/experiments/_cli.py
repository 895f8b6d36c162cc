"""Shared sweep-supervision CLI plumbing for both entry points.

``python -m repro.experiments`` and ``python -m repro experiment`` expose
the same supervision knobs; this module keeps the flag definitions, their
validation (``--jobs 0`` must be a ``parser.error``, not a traceback from
``SweepExecutor.__init__``), and the args→executor translation in one
place so the two CLIs cannot drift.  With ``--shard-dir`` the executor is
a :class:`~repro.experiments.shard.ShardExecutor` joining a distributed
namespace; without it, the single-process
:class:`~repro.experiments.executor.SweepExecutor`.

``--drill KIND@N`` arms a deterministic
:class:`~repro.resilience.faults.SweepFaultPlan`, parsed by
:meth:`~repro.resilience.faults.SweepFaultPlan.parse`: point kinds take a
point index, claim kinds (``--shard-dir`` only) count *successful lease
claims*.  CI drills both on every push; it is a testing aid, never needed
in service.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.executor import SweepExecutor, SweepReport
from repro.resilience.faults import SWEEP_DRILLS, SweepFaultPlan

__all__ = [
    "add_sweep_args",
    "executor_from_args",
    "positive_float_arg",
    "positive_int_arg",
    "print_report",
    "write_report_json",
]


def _drill_kinds(operand: str) -> str:
    return ",".join(k for k, (op, _) in SWEEP_DRILLS.items() if op == operand)


def positive_int_arg(text: str) -> int:
    """argparse ``type=`` for strictly positive integers (``--jobs`` etc.)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float_arg(text: str) -> float:
    """argparse ``type=`` for strictly positive floats (``--timeout``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--jobs``/supervision flags to a (sub)parser."""
    parser.add_argument(
        "--jobs", type=positive_int_arg, default=1, metavar="J",
        help="fan independent sweep points across J worker processes "
             "(default 1: serial, deterministic reference; results are "
             "identical at any J)")
    parser.add_argument(
        "--timeout", type=positive_float_arg, default=None, metavar="SECONDS",
        help="per-point wall-clock deadline; a point past it is killed "
             "with its worker pool and retried (jobs > 1 only; rejected "
             "with --shard-dir)")
    parser.add_argument(
        "--retries", type=positive_int_arg, default=None, metavar="A",
        help="total attempts per point, the last one inline in the "
             "parent process (default 3; 1 disables retries)")
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="record every completed point in the point store at DIR "
             "(DIR/segments/<figure>.journal.seg.jsonl) so a killed run "
             "salvages its finished points")
    parser.add_argument(
        "--resume", action="store_true",
        help="skip points already recorded in the checkpoint journal "
             "(bit-identical reuse; requires --checkpoint-dir)")
    parser.add_argument(
        "--drill", metavar="KIND@INDEX", default=None,
        help="inject a deterministic supervision fault at one point "
             f"index; KIND in {{{_drill_kinds('index')}}} "
             "(testing aid — 'crash' SIGKILLs the first attempt's worker, "
             "'crash-always' every pool attempt, forcing inline salvage); "
             f"with --shard-dir also {{{_drill_kinds('claims')}}}, "
             "where the number counts successful lease claims")
    parser.add_argument(
        "--shard-dir", metavar="DIR", default=None,
        help="join the distributed sweep namespace at DIR: claim points "
             "via lease files, append results to a per-worker segment, "
             "steal expired leases of dead workers; results stay "
             "bit-identical to a serial run at any worker count")
    parser.add_argument(
        "--worker-id", metavar="ID", default=None,
        help="stable worker id inside the shard namespace "
             "(default: <host>-<pid>)")
    parser.add_argument(
        "--workers", type=positive_int_arg, default=None, metavar="W",
        help="convenience launcher: spawn W-1 sweep-worker subprocesses "
             "against --shard-dir and join as the W-th worker yourself")
    parser.add_argument(
        "--lease-ttl", type=positive_float_arg, default=None,
        metavar="SECONDS",
        help="shard lease time-to-live; a worker silent this long has "
             "its claimed points stolen (default 30)")
    parser.add_argument(
        "--report-json", metavar="PATH", default=None,
        help="write every sweep report (per-point status, attempts, "
             "shard provenance) as JSON")
    parser.add_argument(
        "--checkpoint-gc", action="store_true",
        help="compact the point store of --checkpoint-dir and/or "
             "--shard-dir down to one merged file with one record per "
             "point (bad lines quarantined first; with --shard-dir also "
             "dropping leases and graves of finished points), then exit "
             "without sweeping")


def executor_from_args(
    args: argparse.Namespace, parser: argparse.ArgumentParser
):
    """Build the executor both CLIs hand to figure modules.

    ``--shard-dir`` selects the distributed
    :class:`~repro.experiments.shard.ShardExecutor` (the process becomes
    one cooperating worker); otherwise the single-process
    :class:`SweepExecutor`.
    """
    shard_dir = getattr(args, "shard_dir", None)
    if args.resume and not args.checkpoint_dir and not shard_dir:
        parser.error("--resume requires --checkpoint-dir")
    if getattr(args, "workers", None) and not shard_dir:
        parser.error("--workers requires --shard-dir")
    if getattr(args, "lease_ttl", None) and not shard_dir:
        parser.error("--lease-ttl requires --shard-dir")
    if args.timeout is not None and shard_dir:
        parser.error("--timeout has no effect with --shard-dir: a shard "
                     "worker cannot preempt its own point (hung workers "
                     "lose their leases instead)")
    retry = None
    if args.retries is not None:
        from repro.resilience.retry import RetryPolicy

        retry = RetryPolicy(max_attempts=args.retries)
    faults = None
    if args.drill:
        try:
            faults = SweepFaultPlan.parse(args.drill)
        except ValueError as exc:
            parser.error(f"--drill: {exc}")
        if faults.claims_armed and not shard_dir:
            parser.error(
                f"--drill {args.drill} is a shard drill and requires "
                "--shard-dir")
    if shard_dir:
        from repro.experiments.shard import ShardExecutor

        kwargs = {}
        if getattr(args, "lease_ttl", None):
            kwargs["lease_ttl"] = args.lease_ttl
        # The --workers launcher arms the drill on its first child only.
        launcher = (getattr(args, "workers", None) or 1) > 1
        return ShardExecutor(
            shard_dir,
            worker_id=getattr(args, "worker_id", None),
            retry=retry,
            faults=None if launcher else faults,
            **kwargs,
        )
    journal = None
    if args.checkpoint_dir:
        from repro.experiments.journal import SweepJournal

        journal = SweepJournal(args.checkpoint_dir)
    return SweepExecutor(
        args.jobs,
        timeout=args.timeout,
        retry=retry,
        journal=journal,
        resume=args.resume,
        faults=faults,
    )


def write_report_json(path: str | Path, reports: list[SweepReport]) -> Path:
    """Serialize every sweep report of a run as one JSON artifact."""
    path = Path(path)
    path.write_text(json.dumps(
        {"reports": [r.to_dict() for r in reports]}, indent=2,
    ) + "\n")
    return path


def run_checkpoint_gc(args: argparse.Namespace,
                      parser: argparse.ArgumentParser,
                      *, figure: str | None = None, stream=None) -> int:
    """``--checkpoint-gc``: compact journal and/or shard state, then exit."""
    stream = stream if stream is not None else sys.stderr
    if not args.checkpoint_dir and not getattr(args, "shard_dir", None):
        parser.error("--checkpoint-gc requires --checkpoint-dir or --shard-dir")
    counts = {}
    if args.checkpoint_dir:
        from repro.experiments.journal import SweepJournal

        counts["compacted"] = SweepJournal(
            args.checkpoint_dir, writer="gc").compact(figure)
    if getattr(args, "shard_dir", None):
        from repro.experiments.shard import ShardNamespace

        counts["shard gc"] = ShardNamespace(args.shard_dir).gc(figure)
    for what, per_figure in counts.items():
        for fig, (kept, dropped) in sorted(per_figure.items()):
            print(f"# {what} {fig}: {kept} record(s) in one merged file, "
                  f"{dropped} superseded or quarantined line(s) dropped",
                  file=stream)
    return 0


def print_report(report: SweepReport | None, *, stream=None) -> int:
    """Print a sweep report (stderr) and return its 0/1/2 exit code.

    Detail lines only appear when supervision actually did something, so
    a clean run stays one line and the happy path stays quiet-ish.
    """
    if report is None:
        return 0
    stream = stream if stream is not None else sys.stderr
    print(f"# {report.summary()}", file=stream)
    lat = report.latency()
    if lat is not None:
        print(
            f"# point latency: p50 {lat['p50'] * 1e3:.1f}ms "
            f"p95 {lat['p95'] * 1e3:.1f}ms p99 {lat['p99'] * 1e3:.1f}ms "
            f"(n={int(lat['count'])})",
            file=stream,
        )
    for line in report.detail_lines():
        print(f"#   {line}", file=stream)
    return report.exit_code()
