"""Shared sweep-supervision CLI plumbing for both entry points.

``python -m repro.experiments`` and ``python -m repro experiment`` expose
the same supervision knobs; this module keeps the flag definitions, their
validation (``--jobs 0`` must be a ``parser.error``, not a traceback from
``SweepExecutor.__init__``), and the args→executor translation in one
place so the two CLIs cannot drift.  With ``--shard-dir`` the executor is
a :class:`~repro.experiments.shard.ShardExecutor` joining a distributed
namespace (``--jobs N``: as N local workers); without it, a
:class:`~repro.experiments.executor.SweepExecutor`, serial or on ``--jobs``
local shard workers.  ``--timeout`` bounds every attempt in all of them.

``--drill KIND@N`` arms a deterministic
:class:`~repro.resilience.faults.SweepFaultPlan`, parsed by
:meth:`~repro.resilience.faults.SweepFaultPlan.parse`: point kinds take a
point index, claim kinds (``--shard-dir`` or ``--jobs`` > 1) count
*successful lease claims*.  CI drills both on every push; it is a testing
aid, never needed in service.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.experiments.executor import SweepExecutor, SweepReport
from repro.resilience.faults import SWEEP_DRILLS, SweepFaultPlan
from repro.resilience.retry import RetryPolicy

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
        help="share independent sweep points among J local worker "
             "processes: J-1 forked helpers and this one (default 1: "
             "serial, deterministic reference; results are identical at "
             "any J)")
    parser.add_argument(
        "--timeout", type=positive_float_arg, default=None, metavar="SECONDS",
        help="per-attempt wall-clock deadline; an attempt past it is "
             "interrupted and retried (the last attempt runs without it)")
    parser.add_argument(
        "--retries", type=positive_int_arg, default=None, metavar="A",
        help="total attempts per point, the last one without drill or "
             "deadline (default 3; 1 disables retries)")
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
        help="inject a deterministic supervision fault (testing aid) at "
             f"one point index; KIND in {{{_drill_kinds('index')}}} (hangs "
             "need --timeout); with --shard-dir or --jobs > 1 also "
             f"{{{_drill_kinds('claims')}}}, where N counts lease claims")
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
        "--lease-ttl", type=positive_float_arg, default=None,
        metavar="SECONDS",
        help="shard lease time-to-live; a worker silent this long has "
             "its claimed points stolen (default 30; with --shard-dir or "
             "--jobs > 1)")
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
    :class:`~repro.experiments.shard.ShardExecutor` (this process becomes
    ``--jobs`` cooperating workers); otherwise a :class:`SweepExecutor`.
    """
    shard_dir = args.shard_dir
    workers = shard_dir or args.jobs > 1
    if args.resume and not args.checkpoint_dir and not shard_dir:
        parser.error("--resume requires --checkpoint-dir")
    if args.lease_ttl and not workers:
        parser.error("--lease-ttl requires --shard-dir or --jobs > 1")
    faults = None
    if args.drill:
        try:
            faults = SweepFaultPlan.parse(args.drill)
        except ValueError as exc:
            parser.error(f"--drill: {exc}")
        if faults.claims_armed and not workers:
            parser.error(
                f"--drill {args.drill} is a shard drill and requires "
                "--shard-dir or --jobs > 1")
        if faults.hang_point is not None and args.timeout is None:
            parser.error(f"--drill {args.drill} hangs a point and "
                         "requires --timeout")
    retry = RetryPolicy(max_attempts=args.retries or RetryPolicy.max_attempts,
                        timeout=args.timeout)
    kwargs = {"lease_ttl": args.lease_ttl} if args.lease_ttl else {}
    if shard_dir:
        from repro.experiments.shard import ShardExecutor

        return ShardExecutor(shard_dir, worker_id=args.worker_id,
                             jobs=args.jobs, retry=retry, faults=faults,
                             **kwargs)
    journal = None
    if args.checkpoint_dir:
        from repro.experiments.journal import SweepJournal

        journal = SweepJournal(args.checkpoint_dir)
    return SweepExecutor(args.jobs, retry=retry, journal=journal,
                         resume=args.resume, faults=faults, **kwargs)


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
