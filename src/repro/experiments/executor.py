"""Supervised sweep execution: shared models, local shard workers, retries.

A figure sweep is a list of *independent points* (one per swept C², K, …).
Each point owns the :class:`~repro.core.transient.TransientModel` it
builds — every workload size N (and every curve differing only in N) of
that point is evaluated against the same model, so level operators, LU
factors and the refill walk are built exactly once per point.

:class:`SweepExecutor` runs the points:

* ``jobs=1`` (default) — strictly serial, in submission order; this is
  the deterministic reference mode and costs nothing over a plain loop.
* ``jobs>1`` — ``jobs`` local shard workers share the points: this
  process forks ``jobs - 1`` helpers and joins as the first worker of a
  :class:`~repro.experiments.shard.ShardExecutor` over a private
  namespace (the checkpoint directory when a journal is attached).
  Results are assembled by point index from bit-exact records, so the
  output is *identical* to ``jobs=1``: each point's arithmetic is
  untouched, only the wall-clock interleaving changes.

On top sits a **supervision layer** (all opt-out by configuration, ~zero
cost on the happy path):

* **deadlines** — ``RetryPolicy(timeout=)`` bounds each attempt's wall
  clock with a real-time interval timer in whichever process runs the
  point; an overrun is charged ``timeout`` and retried;
* **retries** — a :class:`~repro.resilience.retry.RetryPolicy` re-runs
  timed-out/raising points with exponential backoff and deterministic
  jitter (results stay bit-identical at any ``jobs``); the final attempt
  runs with no drill and no deadline — the sweep-level mirror of the
  solver's degradation ladder;
* **checkpoints** — a :class:`~repro.experiments.journal.SweepJournal`
  (the point store shard workers use too) records each completed point,
  fsync'd before it counts, so a killed run salvages its finished points
  and ``resume=True`` skips them bit-identically;
* **reporting** — every ``map`` leaves a :class:`SweepReport` on
  :attr:`SweepExecutor.report` (per-point status and attempts) that the
  CLIs surface with ``validate``-style 0/1/2 exit codes.

Every point goes through the one attempt loop :func:`run_attempts`,
every computed point's ``ok``/``retried``/``salvaged`` verdict comes from
:meth:`PointOutcome.settle`, and every point found in the store
(``resumed``, or ``peer`` when a shard peer wrote it mid-run) is settled
by :func:`settle_recorded`, so the serial and shard runtimes cannot
drift apart.
"""

from __future__ import annotations

import os
import signal
import tempfile
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.experiments.journal import decode_value, fingerprint_point
from repro.obs import runtime as _rt
from repro.resilience.errors import PointTimeoutError, SolverError, SweepError
from repro.resilience.faults import SweepFaultPlan, trigger_point_fault
from repro.resilience.retry import RetryPolicy

__all__ = [
    "PointOutcome",
    "REPORT_SCHEMA",
    "SweepExecutor",
    "SweepReport",
    "latency_summary",
    "run_attempts",
    "settle_recorded",
]

#: Schema tag for serialized sweep reports (``SweepReport.to_dict``).
#: ``/2`` added per-point wall seconds and the aggregate latency block;
#: ``/3`` dropped the process pool's rebuild count.
REPORT_SCHEMA = "repro-sweep-report/3"

#: Sentinel for a point with no result yet.
_PENDING = object()


def latency_summary(seconds: Sequence[float]) -> dict[str, float]:
    """Exact percentile summary of per-point wall times.

    Linear interpolation between order statistics (numpy's default
    ``quantile`` method) over the sorted samples — the SLO numbers in
    :meth:`SweepReport.latency`, ``--report-json`` and ``repro status``.
    Unlike :meth:`~repro.obs.metrics.Histogram.quantile` this is an exact
    order statistic, not a bucket estimate.
    """
    xs = sorted(float(s) for s in seconds)
    if not xs:
        raise ValueError("latency_summary needs at least one sample")

    def pct(q: float) -> float:
        pos = q * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])

    return {
        "count": len(xs),
        "mean": sum(xs) / len(xs),
        "p50": pct(0.50),
        "p95": pct(0.95),
        "p99": pct(0.99),
        "max": xs[-1],
    }


# ----------------------------------------------------------------------
@dataclass
class PointOutcome:
    """Supervision verdict for one sweep point.

    ``owner``/``steals``/``generation`` are shard provenance, set only by
    :class:`~repro.experiments.shard.ShardExecutor` workers: the
    worker id that produced the accepted record, how many times the
    point's lease was stolen from a dead or stalled holder, and the final
    lease generation (``steals + 1`` for a computed point).
    """

    index: int
    #: "pending" | "ok" | "resumed" | "retried" | "salvaged" | "failed"
    #: | "peer" (computed by another shard worker)
    #: | "stolen" (computed here after stealing an expired lease)
    status: str = "pending"
    #: attempts actually started (0 for a journal-resumed point)
    attempts: int = 0
    #: last failure description (non-empty only for "failed")
    error: str = ""
    #: one reason-coded entry per failed attempt, oldest first
    failures: list[str] = field(default_factory=list)
    #: shard worker id that produced the accepted record ("" outside shards)
    owner: str = ""
    #: expired-lease steals on this point's way to completion
    steals: int = 0
    #: lease generation of the accepted record (0 outside shards)
    generation: int = 0
    #: wall-clock seconds of the accepted attempt in this run; a point
    #: settled from a stored record ("resumed" or "peer") was not
    #: computed here and reports 0.0, whatever its record's history
    seconds: float = 0.0

    def settle(self, attempt: int, fallback: bool) -> None:
        """Mark the point computed on ``attempt``: ``ok`` on the first,
        ``salvaged`` on the fallback attempt (counted in
        ``repro_points_salvaged_total``), else ``retried``."""
        if attempt == 1:
            self.status = "ok"
        elif fallback:
            self.status = "salvaged"
            ins = _rt.ACTIVE
            if ins is not None:
                ins.count("repro_points_salvaged_total")
        else:
            self.status = "retried"

    def fail(self, attempt: int, reason: str, error: str,
             retry: RetryPolicy) -> float | None:
        """Record failed ``attempt``.  Returns the backoff before the next
        one (recording the ``point_retry`` span and
        ``repro_point_retries_total``), or ``None`` after the last attempt,
        which fails the point."""
        self.failures.append(f"attempt {attempt}: {reason}")
        if attempt >= retry.max_attempts:
            self.status = "failed"
            self.error = error
            return None
        delay = retry.delay(attempt, self.index)
        ins = _rt.ACTIVE
        if ins is not None:
            with ins.span("point_retry", index=self.index, attempt=attempt,
                          reason=reason, delay=round(delay, 6)):
                pass
            ins.count("repro_point_retries_total", reason=reason)
        return delay

    def to_dict(self) -> dict:
        """JSON-ready rendering (used by ``--report-json`` artifacts)."""
        out = {
            "index": self.index,
            "status": self.status,
            "attempts": self.attempts,
            "error": self.error,
            "failures": list(self.failures),
            "seconds": round(self.seconds, 9),
        }
        if self.owner or self.generation:
            out["owner"] = self.owner
            out["steals"] = self.steals
            out["generation"] = self.generation
        return out


@dataclass
class SweepReport:
    """Structured account of one supervised sweep run."""

    label: str
    total: int = 0
    points: list[PointOutcome] = field(default_factory=list)
    interrupted: bool = False

    def count(self, status: str) -> int:
        return sum(1 for p in self.points if p.status == status)

    @property
    def ok(self) -> int:
        return self.count("ok")

    @property
    def resumed(self) -> int:
        return self.count("resumed")

    @property
    def retried(self) -> int:
        return self.count("retried")

    @property
    def salvaged(self) -> int:
        return self.count("salvaged")

    @property
    def failed(self) -> int:
        return self.count("failed")

    @property
    def peer(self) -> int:
        return self.count("peer")

    @property
    def stolen(self) -> int:
        return self.count("stolen")

    @property
    def complete(self) -> bool:
        """Every point has a result (clean, resumed, retried or salvaged)."""
        return not self.interrupted and all(
            p.status in ("ok", "resumed", "retried", "salvaged",
                         "peer", "stolen")
            for p in self.points
        )

    def exit_code(self) -> int:
        """``validate``-style verdict: 0 clean, 1 recovered, 2 incomplete."""
        if not self.complete:
            return 2
        if self.retried or self.salvaged or self.stolen:
            return 1
        return 0

    def latency(self) -> dict[str, float] | None:
        """Exact p50/p95/p99 over per-point wall seconds, or ``None``.

        Only points computed in this run carry a duration (points
        settled from stored records — resumed, or written by a shard
        peer — report 0.0 and are excluded), so the percentiles describe
        solve latency paid by this run.
        """
        secs = [p.seconds for p in self.points if p.seconds > 0.0]
        if not secs:
            return None
        return latency_summary(secs)

    def summary(self) -> str:
        """One greppable line: totals by status."""
        tail = " INTERRUPTED" if self.interrupted else ""
        shard = (
            f" stolen={self.stolen} peer={self.peer}"
            if self.stolen or self.peer else ""
        )
        return (
            f"sweep {self.label}: points={self.total} ok={self.ok} "
            f"resumed={self.resumed} retried={self.retried} "
            f"salvaged={self.salvaged} failed={self.failed}{shard}{tail}"
        )

    def detail_lines(self) -> list[str]:
        """One line per point that needed supervision (empty when clean)."""
        lines = []
        for p in self.points:
            if p.status in ("ok", "resumed", "peer"):
                continue
            trail = "; ".join(p.failures)
            prov = (
                f" owner={p.owner} steals={p.steals}"
                if p.status == "stolen" else ""
            )
            lines.append(
                f"point {p.index}: {p.status} (attempts={p.attempts}{prov})"
                + (f" — {trail}" if trail else "")
            )
        return lines

    def beyond_retry(self, where: str) -> SweepError:
        """The error a runtime raises when points failed beyond retry;
        ``where`` says where the completed points are kept."""
        bad = [p.index for p in self.points if p.status == "failed"]
        return SweepError(
            f"sweep {self.label!r}: {len(bad)} of {self.total} points failed "
            f"beyond retry (indices {bad}); completed points {where}",
            report=self,
        )

    def to_dict(self) -> dict:
        """JSON-ready rendering of the full report (``--report-json``)."""
        return {
            "schema": REPORT_SCHEMA,
            "label": self.label,
            "total": self.total,
            "complete": self.complete,
            "exit_code": self.exit_code(),
            "interrupted": self.interrupted,
            "counts": {
                status: self.count(status)
                for status in ("ok", "resumed", "retried", "salvaged",
                               "failed", "peer", "stolen")
            },
            "latency": self.latency(),
            "points": [p.to_dict() for p in self.points],
        }


@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`PointTimeoutError` in the block once ``seconds`` of
    wall clock pass (a one-shot ``ITIMER_REAL``; no-op for ``None``)."""
    if seconds is None:
        yield
        return

    def expire(signum, frame):
        raise PointTimeoutError(f"point exceeded the {seconds:g}s deadline")

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        try:
            signal.setitimer(signal.ITIMER_REAL, 0)
        finally:
            signal.signal(signal.SIGALRM, old)


def run_attempts(
    fn: Callable[..., Any],
    args: tuple,
    out: PointOutcome,
    retry: RetryPolicy,
    faults: SweepFaultPlan | None,
    *,
    mode: str,
) -> tuple[bool, Any]:
    """Run one sweep point in this process, attempts ``1..retry.max_attempts``.

    The one attempt loop of every runtime: the serial path and each
    shard worker.  The drill plan and the ``retry.timeout`` deadline
    apply to every attempt but the fallback; each attempt runs under a
    ``sweep_point`` span labelled ``mode``.  A failed attempt is recorded
    on ``out`` and backed off; a success sets ``out.seconds`` and settles
    ``out``.  Returns ``(ok, value)``.
    """
    if retry.timeout is not None and \
            threading.current_thread() is not threading.main_thread():
        raise RuntimeError(
            "a point deadline (RetryPolicy.timeout) uses SIGALRM and "
            "needs the main thread")
    ins = _rt.ACTIVE
    for attempt in range(1, retry.max_attempts + 1):
        fallback = retry.is_fallback(attempt)
        out.attempts = attempt
        t0 = time.perf_counter()
        try:
            with nullcontext() if ins is None else ins.span(
                    "sweep_point", fn=fn.__name__, mode=mode), \
                    _deadline(None if fallback else retry.timeout):
                if faults is not None and not fallback:
                    trigger_point_fault(faults, out.index, attempt)
                value = fn(*args)
        except Exception as exc:
            reason = exc.reason if isinstance(exc, SolverError) \
                else "exception"
            delay = out.fail(attempt, reason,
                             f"{type(exc).__name__}: {exc}", retry)
            if delay:
                time.sleep(delay)
            continue
        out.seconds = time.perf_counter() - t0
        out.settle(attempt, fallback)
        if ins is not None:
            ins.count("repro_sweep_points_total", mode=mode)
            ins.observe("repro_point_seconds", out.seconds, mode=mode)
        return True, value
    return False, None


def settle_recorded(records: dict[str, dict], fps: Sequence[str],
                    indices: Sequence[int], report: SweepReport,
                    results: list, *, status: str) -> set[int]:
    """Settle each point of ``indices`` whose fingerprint has a record.

    The one resume rule of every runtime: the value is decoded
    bit-exactly into ``results``, the point's status becomes ``status``
    (``"resumed"``, counted in ``repro_points_resumed_total``, or
    ``"peer"`` for a record a shard peer wrote mid-run), shard provenance
    (owner, generation, steals) comes from the record, and ``attempts``
    and ``seconds`` stay 0 — nothing was computed in this run.  Returns
    the indices settled.
    """
    ins = _rt.ACTIVE
    settled = set()
    for i in indices:
        rec = records.get(fps[i])
        if rec is None:
            continue
        results[i] = decode_value(rec["value"])
        out = report.points[i]
        out.status = status
        out.owner = rec.get("owner", "")
        out.generation = int(rec.get("generation", 0))
        out.steals = max(0, out.generation - 1)
        settled.add(i)
        if ins is not None and status == "resumed":
            ins.count("repro_points_resumed_total")
    return settled


class SweepExecutor:
    """Runs independent sweep points, serially or on local shard workers.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs serially in this process,
        ``N > 1`` forks ``N - 1`` helpers that share the points with it
        through a :class:`~repro.experiments.shard.ShardExecutor`.
    retry:
        :class:`~repro.resilience.retry.RetryPolicy`; the default allows
        3 attempts with no deadline, the last one a fallback that no
        drill or deadline touches.
    journal:
        :class:`~repro.experiments.journal.SweepJournal` point store
        recording every completed point; ``None`` disables
        checkpointing.  At ``jobs > 1`` its directory is also the
        workers' shard namespace.
    resume:
        Look each point up in the store before running it and reuse the
        recorded (bit-exact) result on a hit (:func:`settle_recorded`).
        Without it, a ``jobs > 1`` run only takes records its own
        workers wrote.
    faults:
        Deterministic :class:`~repro.resilience.faults.SweepFaultPlan`
        for supervision drills — never armed in service.  Point faults
        apply to every worker; claim faults need ``jobs > 1`` and go to
        the first helper only.
    lease_ttl:
        Lease time-to-live of the local shard workers (``jobs > 1``): a
        helper silent this long has its claimed point stolen.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        retry: RetryPolicy | None = None,
        journal=None,
        resume: bool = False,
        faults: SweepFaultPlan | None = None,
        lease_ttl: float = 30.0,
    ):
        if jobs < 1 or int(jobs) != jobs:
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
        self.jobs = int(jobs)
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal = journal
        self.resume = bool(resume)
        self.faults = faults
        self.lease_ttl = float(lease_ttl)
        #: report of the most recent :meth:`map` (None before the first)
        self.report: SweepReport | None = None
        #: reports of every :meth:`map` on this executor, oldest first
        self.reports: list[SweepReport] = []

    def close(self) -> None:
        """Flush and close the attached journal, if any (idempotent)."""
        if self.journal is not None:
            self.journal.close()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def map(
        self,
        fn: Callable[..., Any],
        calls: Sequence[tuple],
        *,
        label: str | None = None,
    ) -> list[Any]:
        """``[fn(*args) for args in calls]`` with index-order results.

        ``label`` names the sweep in the report and keys the checkpoint
        journal (figure modules pass their experiment name).  Raises
        :class:`~repro.resilience.errors.SweepError` when any point fails
        beyond retry; raises ``KeyboardInterrupt`` after flushing the
        journal and marking the report interrupted.
        """
        calls = list(calls)
        label = label or getattr(fn, "__name__", "sweep")
        report = SweepReport(label=label, total=len(calls))
        report.points = [PointOutcome(index=i) for i in range(len(calls))]
        self.report = report
        self.reports.append(report)

        results: list[Any] = [_PENDING] * len(calls)
        pending = list(range(len(calls)))
        if self.journal is not None and self.resume:
            fps = [fingerprint_point(label, args, self.journal.version)
                   for args in calls]
            resumed = settle_recorded(self.journal.records(label), fps,
                                      pending, report, results,
                                      status="resumed")
            pending = [i for i in pending if i not in resumed]

        try:
            if self.jobs > 1 and len(pending) > 1:
                results = self._run_local(fn, calls, label)
            elif pending:
                self._run_serial(fn, calls, pending, results, report, label)
        except KeyboardInterrupt:
            self.report.interrupted = True
            raise
        if not self.report.complete:
            raise self.report.beyond_retry(
                "are checkpointed" if self.journal is not None
                else "were not checkpointed (no journal)"
            )
        return results

    # -- serial path ---------------------------------------------------
    def _run_serial(self, fn, calls, pending, results, report, label):
        """Run ``pending`` points in this process through
        :func:`run_attempts`, checkpointing each success."""
        for i in pending:
            out = report.points[i]
            ok, value = run_attempts(
                fn, calls[i], out, self.retry, self.faults, mode="inline",
            )
            if ok:
                results[i] = value
                if self.journal is not None:
                    self.journal.record(
                        label, calls[i], index=out.index, value=value,
                        status=out.status, attempts=out.attempts,
                    )

    # -- local shard workers -------------------------------------------
    def _run_local(self, fn, calls, label):
        """Sweep ``calls`` as ``jobs`` local shard workers; their report
        replaces this map's.  The namespace is the journal's directory,
        or a private temporary one removed afterwards."""
        from repro.experiments.shard import ShardExecutor, default_worker_id

        journal = self.journal
        namespace = (nullcontext(journal.root) if journal is not None
                     else tempfile.TemporaryDirectory(prefix="repro-sweep-"))
        # A per-run suffix keeps a reused pid from claiming the records of
        # an earlier run as this run's own.  A claim scan of a local
        # namespace is a few stat calls, so workers waiting on a peer's
        # last point poll every 10 ms instead of the shared-filesystem
        # 100 ms: a sweep's tail wait is paid once per figure.
        run_id = f"{default_worker_id()}-{os.urandom(3).hex()}"
        with namespace as root, ShardExecutor(
                root, worker_id=run_id, jobs=self.jobs, poll=0.01,
                lease_ttl=self.lease_ttl, retry=self.retry,
                faults=self.faults,
                version=None if journal is None else journal.version,
        ) as shard:
            if not self.resume:
                shard._owners = frozenset(shard.worker_ids)
            try:
                return shard.map(fn, calls, label=label)
            except SweepError:
                return None  # map() raises with this runtime's wording
            finally:
                self.report = self.reports[-1] = shard.report
