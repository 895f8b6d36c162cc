"""Supervised sweep execution: shared models, process-pool fan-out, retries.

A figure sweep is a list of *independent points* (one per swept C², K, …).
Each point owns the :class:`~repro.core.transient.TransientModel` it
builds — every workload size N (and every curve differing only in N) of
that point is evaluated against the same model, so level operators and
cached propagators are assembled exactly once per point.

:class:`SweepExecutor` runs the points:

* ``jobs=1`` (default) — strictly serial, in submission order; this is
  the deterministic reference mode and costs nothing over a plain loop.
* ``jobs>1`` — the points fan out across a
  :class:`concurrent.futures.ProcessPoolExecutor`.  Results are assembled
  by point index, so the output is *identical* to ``jobs=1``: each
  point's arithmetic is untouched, only the wall-clock interleaving
  changes.

On top of the fan-out sits a **supervision layer** (all opt-out by
configuration, ~zero cost on the happy path):

* **deadlines** — ``timeout=`` bounds each point's wall clock; futures
  are collected through :func:`concurrent.futures.wait`, never a blind
  ``fut.result()``, so a hung worker is detected, its pool killed and
  rebuilt, and innocent in-flight points resubmitted without losing an
  attempt;
* **retries** — a :class:`~repro.resilience.retry.RetryPolicy` re-runs
  crashed/timed-out/raising points with exponential backoff and
  deterministic jitter (results stay bit-identical at any ``jobs``); the
  final attempt runs *inline in the parent*, the rung no worker death
  can reach — the sweep-level mirror of the solver's degradation ladder;
* **checkpoints** — a :class:`~repro.experiments.journal.SweepJournal`
  (the point store shard workers use too) records each completed point,
  fsync'd before it counts, so a killed run salvages its finished points
  and ``resume=True`` skips them bit-identically;
* **reporting** — every ``map`` leaves a :class:`SweepReport` on
  :attr:`SweepExecutor.report` (per-point status, attempts, pool
  rebuilds) that the CLIs surface with ``validate``-style 0/1/2 exit
  codes.

Every point that runs in the calling process — each serial point, the
pool's inline fallback rung, and every point a
:class:`~repro.experiments.shard.ShardExecutor` worker claims — goes
through the one attempt loop :func:`run_attempts`, every computed
point's ``ok``/``retried``/``salvaged`` verdict comes from
:meth:`PointOutcome.settle`, and every point found in the store
(``resumed``, or ``peer`` when a shard peer wrote it mid-run) is settled
by :func:`settle_recorded`, so the three runtimes cannot drift apart.

Observability survives the fan-out *and* failures: each worker records
its own ``sweep_point`` span tree and metrics registry and ships them
back with the result — or, when the point function raises, alongside a
picklable :class:`WorkerFailure` envelope — so ``repro profile`` keeps
accounting ≥95 % of wall time at any ``--jobs`` even on failing sweeps.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.experiments.journal import decode_value, fingerprint_point
from repro.obs import runtime as _rt
from repro.obs.instrument import Instrumentation
from repro.resilience.errors import SolverError, SweepError
from repro.resilience.faults import SweepFaultPlan, trigger_point_fault
from repro.resilience.retry import RetryPolicy

__all__ = [
    "PointOutcome",
    "REPORT_SCHEMA",
    "SweepExecutor",
    "SweepReport",
    "WorkerFailure",
    "latency_summary",
    "pool_worker",
    "run_attempts",
    "settle_recorded",
]

#: Schema tag for serialized sweep reports (``SweepReport.to_dict``).
#: ``/2`` added per-point wall seconds and the aggregate latency block.
REPORT_SCHEMA = "repro-sweep-report/2"

#: Sentinel for a point with no result yet.
_PENDING = object()

#: Module alias so tests can monkeypatch the supervisor's wait primitive.
_wait = _futures_wait


@dataclass(frozen=True)
class WorkerFailure:
    """Picklable account of a point attempt that raised inside a worker.

    ``reason`` is a stable code — a
    :class:`~repro.resilience.errors.SolverError` reason when the point
    failed structurally, else ``"exception"`` — used as the retry
    metric's label; ``kind``/``message`` preserve the original exception
    for the report.
    """

    kind: str
    reason: str
    message: str

    @classmethod
    def from_exception(cls, exc: BaseException) -> "WorkerFailure":
        return cls(kind=type(exc).__name__, reason=_failure_reason(exc),
                   message=str(exc))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind}: {self.message}"


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


def pool_worker(
    fn: Callable[..., Any],
    args: tuple,
    observe: bool,
    faults: SweepFaultPlan | None = None,
    index: int = 0,
    attempt: int = 1,
) -> tuple[Any, list | None, Any, float]:
    """Run one sweep point inside a worker process.

    When ``observe`` is set (the parent had instrumentation active) the
    worker arms a fresh bundle, wraps the point in a ``sweep_point`` root
    span, and returns ``(value, spans, metrics, seconds)`` for the parent
    to graft/merge; otherwise it returns ``(value, None, None, seconds)``.
    ``seconds`` is the point's wall-clock duration, measured in both
    modes so latency SLOs survive uninstrumented runs.  A point function
    that raises does **not** lose its telemetry: the exception is shipped
    back as a :class:`WorkerFailure` in the value slot, with the spans
    and metrics recorded up to the failure alongside it.

    An armed :class:`~repro.resilience.faults.SweepFaultPlan` fires
    before the point runs — a crash drill SIGKILLs this process, which no
    envelope can survive; the parent sees ``BrokenProcessPool`` instead.
    """
    t0 = time.perf_counter()
    ins = Instrumentation.enabled() if observe else None
    with nullcontext() if ins is None else ins.activate():
        try:
            with nullcontext() if ins is None else ins.span(
                    "sweep_point", fn=fn.__name__, mode="pool"):
                if faults is not None:
                    trigger_point_fault(faults, index, attempt)
                value = fn(*args)
        except Exception as exc:
            value = WorkerFailure.from_exception(exc)
    if ins is None:
        return value, None, None, time.perf_counter() - t0
    return value, ins.tracer.spans, ins.metrics, time.perf_counter() - t0


# ----------------------------------------------------------------------
@dataclass
class PointOutcome:
    """Supervision verdict for one sweep point.

    ``owner``/``steals``/``generation`` are shard provenance, set only by
    the distributed :class:`~repro.experiments.shard.ShardExecutor`: the
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
        ``salvaged`` on the inline fallback (counted in
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
    pool_rebuilds: int = 0
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
        if self.retried or self.salvaged or self.stolen or self.pool_rebuilds:
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
        """One greppable line: totals by status plus rebuild count."""
        tail = " INTERRUPTED" if self.interrupted else ""
        shard = (
            f" stolen={self.stolen} peer={self.peer}"
            if self.stolen or self.peer else ""
        )
        return (
            f"sweep {self.label}: points={self.total} ok={self.ok} "
            f"resumed={self.resumed} retried={self.retried} "
            f"salvaged={self.salvaged} failed={self.failed}{shard} "
            f"pool_rebuilds={self.pool_rebuilds}{tail}"
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
            "pool_rebuilds": self.pool_rebuilds,
            "counts": {
                status: self.count(status)
                for status in ("ok", "resumed", "retried", "salvaged",
                               "failed", "peer", "stolen")
            },
            "latency": self.latency(),
            "points": [p.to_dict() for p in self.points],
        }


def _failure_reason(exc: BaseException) -> str:
    """Retry-metric label: a :class:`SolverError` reason, else
    ``"exception"``."""
    return exc.reason if isinstance(exc, SolverError) else "exception"


def run_attempts(
    fn: Callable[..., Any],
    args: tuple,
    out: PointOutcome,
    retry: RetryPolicy,
    faults: SweepFaultPlan | None,
    *,
    mode: str,
    first: int = 1,
) -> tuple[bool, Any]:
    """Run one sweep point inline, attempts ``first..retry.max_attempts``.

    The one attempt loop of every runtime that computes in its own
    process: the serial path (``first=1``), the pool's inline fallback
    rung (``first`` = the last attempt) and each shard worker.  The drill
    plan fires on every attempt but the fallback; each attempt runs under
    a ``sweep_point`` span labelled ``mode``.  A failed attempt is
    recorded on ``out`` and backed off; a success sets ``out.seconds``
    and settles ``out``.  Returns ``(ok, value)``.
    """
    ins = _rt.ACTIVE
    for attempt in range(first, retry.max_attempts + 1):
        fallback = retry.is_fallback(attempt)
        out.attempts = attempt
        t0 = time.perf_counter()
        try:
            with nullcontext() if ins is None else ins.span(
                    "sweep_point", fn=fn.__name__, mode=mode):
                if faults is not None and not fallback:
                    trigger_point_fault(faults, out.index, attempt,
                                        inline=True)
                value = fn(*args)
        except Exception as exc:
            delay = out.fail(attempt, _failure_reason(exc),
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


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """SIGKILL a pool's workers (hung workers ignore polite shutdown)."""
    procs = getattr(pool, "_processes", None) or {}
    for proc in list(procs.values()):
        try:
            proc.kill()
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class SweepExecutor:
    """Runs independent sweep points, inline or across a supervised pool.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (default) runs serially in the parent.
    timeout:
        Per-point wall-clock deadline in seconds (pool mode only — a
        serial parent cannot preempt itself).  ``None`` disables.
    retry:
        :class:`~repro.resilience.retry.RetryPolicy`; the default allows
        3 attempts with the last one inline in the parent.
    journal:
        :class:`~repro.experiments.journal.SweepJournal` point store
        recording every completed point; ``None`` disables
        checkpointing.
    resume:
        Look each point up in the store before running it and reuse the
        recorded (bit-exact) result on a hit (:func:`settle_recorded`).
    faults:
        Deterministic :class:`~repro.resilience.faults.SweepFaultPlan`
        for supervision drills — never armed in service.  Only its point
        faults apply here; claim faults need a shard worker.
    """

    def __init__(
        self,
        jobs: int = 1,
        *,
        timeout: float | None = None,
        retry: RetryPolicy | None = None,
        journal=None,
        resume: bool = False,
        faults: SweepFaultPlan | None = None,
    ):
        if jobs < 1 or int(jobs) != jobs:
            raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
        if timeout is not None and not timeout > 0:
            raise ValueError(f"timeout must be positive seconds, got {timeout!r}")
        self.jobs = int(jobs)
        self.timeout = None if timeout is None else float(timeout)
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal = journal
        self.resume = bool(resume)
        self.faults = faults
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
            if pending:
                if self.jobs == 1 or len(pending) <= 1:
                    self._run_serial(fn, calls, pending, results, report, label)
                else:
                    self._run_pool(fn, calls, pending, results, report, label)
        except KeyboardInterrupt:
            report.interrupted = True
            raise
        if not report.complete:
            raise report.beyond_retry(
                "are checkpointed" if self.journal is not None
                else "were not checkpointed (no journal)"
            )
        return results

    # -- checkpoints ---------------------------------------------------
    def _checkpoint(self, label: str, args: tuple, out: PointOutcome,
                    value: Any) -> None:
        if self.journal is not None:
            self.journal.record(
                label, args, index=out.index, value=value,
                status=out.status, attempts=out.attempts,
            )

    # -- serial path ---------------------------------------------------
    def _run_serial(self, fn, calls, pending, results, report, label, *,
                    first: int = 1):
        """Run ``pending`` points inline through :func:`run_attempts`; the
        pool's fallback rung passes one point and the last attempt."""
        for i in pending:
            out = report.points[i]
            ok, value = run_attempts(
                fn, calls[i], out, self.retry, self.faults, mode="inline",
                first=first,
            )
            if ok:
                results[i] = value
                self._checkpoint(label, calls[i], out, value)

    def _run_pool(self, fn, calls, pending, results, report, label):
        ins = _rt.ACTIVE
        observe = ins is not None
        workers = min(self.jobs, len(pending), os.cpu_count() or 1)
        pool = ProcessPoolExecutor(max_workers=workers)
        generation = 0
        #: future -> (index, attempt, deadline, pool generation)
        inflight: dict = {}
        #: (index, attempt) ready to submit, FIFO; attempts are 1-based
        ready = deque((i, 1) for i in pending)
        #: (ready_at, index, attempt) backoff queue
        waiting: list[tuple[float, int, int]] = []

        def collect(fut, i, attempt):
            """Handle one finished future: success, failure, or pool loss."""
            try:
                value, spans, metrics, seconds = fut.result()
            except BrokenProcessPool:
                record_failure(i, attempt, "pool-broken",
                               "worker process died (pool broken)")
                return False
            except Exception as exc:  # unpicklable payloads and the like
                record_failure(i, attempt, "exception",
                               f"{type(exc).__name__}: {exc}")
                return True
            if ins is not None:
                if spans and ins.tracer is not None:
                    ins.tracer.graft(spans)
                if metrics is not None and ins.metrics is not None:
                    ins.metrics.merge(metrics)
            if isinstance(value, WorkerFailure):
                record_failure(i, attempt, value.reason, str(value))
                return True
            out = report.points[i]
            results[i] = value
            out.seconds = seconds
            out.settle(attempt, fallback=False)
            if ins is not None:
                ins.count("repro_sweep_points_total", mode="pool")
                ins.observe("repro_point_seconds", seconds, mode="pool")
            self._checkpoint(label, calls[i], out, value)
            return True

        def record_failure(i, attempt, reason, detail):
            delay = report.points[i].fail(attempt, reason, detail, self.retry)
            if delay is not None:
                waiting.append((time.monotonic() + delay, i, attempt + 1))

        def rebuild(cause):
            """Kill the pool and start a fresh pool generation."""
            nonlocal pool, generation
            _kill_pool_processes(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            report.pool_rebuilds += 1
            if ins is not None:
                ins.count("repro_pool_rebuilds_total", cause=cause)
                ins.event("pool_rebuild", cause=cause)
            pool = ProcessPoolExecutor(max_workers=workers)
            generation += 1

        def settle_inflight_and_rebuild(cause, orphan):
            """Collect finished in-flight futures, hand each unfinished
            ``(index, attempt)`` to ``orphan``, then rebuild the pool."""
            for fut, (i, attempt, _dl, _g) in list(inflight.items()):
                if fut.done():
                    collect(fut, i, attempt)
                else:
                    orphan(i, attempt)
            inflight.clear()
            rebuild(cause)

        def submit_ready():
            while ready and len(inflight) < workers:
                i, attempt = ready.popleft()
                if self.retry.is_fallback(attempt):
                    self._run_serial(fn, calls, [i], results, report, label,
                                     first=attempt)
                    continue
                report.points[i].attempts = attempt
                deadline = (
                    time.monotonic() + self.timeout
                    if self.timeout is not None else None
                )
                task = (pool_worker, fn, calls[i], observe, self.faults,
                        i, attempt)
                try:
                    fut = pool.submit(*task)
                except (BrokenProcessPool, RuntimeError):
                    rebuild("crash")
                    fut = pool.submit(*task)
                inflight[fut] = (i, attempt, deadline, generation)

        try:
            submit_ready()
            while inflight or waiting or ready:
                now = time.monotonic()
                due = sorted(w for w in waiting if w[0] <= now)
                for w in due:
                    waiting.remove(w)
                    ready.append((w[1], w[2]))
                submit_ready()
                if not inflight:
                    if waiting:
                        now = time.monotonic()
                        time.sleep(max(0.0, min(w[0] for w in waiting) - now))
                    continue

                horizon = [d for (_, _, d, _) in inflight.values()
                           if d is not None]
                horizon += [w[0] for w in waiting]
                timeout = (
                    max(0.0, min(horizon) - time.monotonic())
                    if horizon else None
                )
                done, _ = _wait(
                    set(inflight), timeout=timeout,
                    return_when=FIRST_COMPLETED,
                )

                broken = False
                for fut in done:
                    i, attempt, _dl, gen = inflight.pop(fut)
                    if not collect(fut, i, attempt) and gen == generation:
                        broken = True
                if broken:
                    # The pool died under every in-flight point; none of
                    # them can be attributed, so each is charged one
                    # pool-broken attempt and retried.
                    settle_inflight_and_rebuild(
                        "crash", lambda i, attempt: record_failure(
                            i, attempt, "pool-broken",
                            "worker process died (pool broken)"),
                    )
                    continue

                now = time.monotonic()
                expired = [
                    fut for fut, (_i, _a, dl, _g) in inflight.items()
                    if dl is not None and now > dl and not fut.done()
                ]
                if expired:
                    # A running future cannot be cancelled: kill the pool.
                    # Timed-out points are charged an attempt; innocent
                    # in-flight points are resubmitted at the same attempt.
                    for fut in expired:
                        i, attempt, _dl, _g = inflight.pop(fut)
                        record_failure(
                            i, attempt, "timeout",
                            f"point exceeded the {self.timeout:g}s deadline",
                        )
                    settle_inflight_and_rebuild(
                        "timeout",
                        lambda i, attempt: ready.appendleft((i, attempt)),
                    )
        except KeyboardInterrupt:
            # Graceful Ctrl-C: no orphaned workers, journal already
            # flushed per point; the caller prints the partial report.
            _kill_pool_processes(pool)
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            pool.shutdown()
