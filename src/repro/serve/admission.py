"""Bounded admission control for the ``repro serve`` daemon.

PR 9's daemon accepted unbounded concurrent work: every request went
straight onto the solver thread pool, so a transient slowdown queued
work without limit and retries amplified it — the canonical entry ramp
into a *metastable* failure (the system stays collapsed after the
trigger clears because the retry storm regenerates the overload).  This
module is the server half of the cure; :mod:`repro.serve.client` is the
client half.

One :class:`AdmissionController` sits in front of the solver pool and is
confined to the daemon's event loop (single-threaded — no locks, only
asyncio primitives):

* **Bounded in-flight** — at most ``max_inflight`` solves hold a slot at
  once; a slot is released when the *work* finishes, not when the HTTP
  response is sent, so work abandoned by a timed-out request keeps its
  slot accounted until the thread actually frees it (the fix for the
  PR 9 ``_offload`` leak).
* **Bounded wait queue with deadline eviction** — up to ``queue_depth``
  requests may wait for a slot; a waiter that cannot be granted within
  ``queue_deadline`` seconds is evicted with a ``503`` instead of
  rotting (a queue that grows or waits without bound *is* the metastable
  buffer).
* **Load shedding** — a full queue sheds new arrivals immediately with
  ``429``; both shed shapes carry ``Retry-After`` so budget-aware
  clients desynchronize instead of hammering.
* **Cost-aware admission** — the exact ``D_RP(k)`` prediction of
  :func:`repro.resilience.budget.predict_cost` prices a query *before*
  it touches the pool; an over-cap spec is rejected (``429``) or
  down-tiered onto the ladder's operator-free ``amva`` rung (``203``)
  when the metric allows it.
* **Brownout** — when the queue length crosses ``brownout_watermark``
  the controller enters brownout and the daemon answers makespans on
  the ladder ``exact`` → ``amva`` (``203`` responses) until the queue
  drains below the hysteresis clear mark; total brownout time is
  exported as ``repro_brownout_seconds``.
* **Drain** — :meth:`begin_drain` flips the controller into a terminal
  shed-everything state (``503`` reason ``draining``) and evicts every
  queued waiter, for the daemon's graceful SIGTERM path.

Every decision is observable: ``repro_admission_total{outcome}``,
``repro_shed_total{reason}``, ``repro_admission_inflight`` /
``repro_admission_queue_depth`` gauges and the
``repro_admission_wait_seconds`` histogram (docs/OBSERVABILITY.md), and
:meth:`stats` snapshots the same numbers into the daemon's ``/status``
document for the fleet console.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionTicket",
    "SHED_REASONS",
    "ShedError",
]

#: Stable shed reason codes (the ``repro_shed_total`` label vocabulary).
SHED_REASONS = ("queue-full", "queue-deadline", "over-cost", "draining")


class ShedError(Exception):
    """A request the admission controller refused to run.

    ``reason`` is one of :data:`SHED_REASONS`; ``code`` the HTTP status
    the daemon should answer with (``429`` when retrying later may
    succeed, ``503`` when the service itself is the problem); and
    ``retry_after`` the advisory backoff in seconds carried in the
    ``Retry-After`` header.
    """

    def __init__(self, reason: str, message: str, *, code: int,
                 retry_after: float):
        if reason not in SHED_REASONS:
            raise ValueError(
                f"unknown shed reason {reason!r}; valid: {SHED_REASONS}"
            )
        super().__init__(message)
        self.reason = reason
        self.code = code
        self.retry_after = float(retry_after)


@dataclass(frozen=True)
class AdmissionConfig:
    """The overload-control knobs of one daemon (CLI: ``repro serve``).

    Parameters
    ----------
    max_inflight:
        Concurrent solves allowed on the pool (defaults to the solver
        thread count in the daemon; more than that only queues inside
        the executor where admission cannot see it).
    queue_depth:
        Requests allowed to wait for a slot; arrivals beyond this are
        shed with ``429``.  ``0`` disables queueing entirely.
    queue_deadline:
        Longest a waiter may sit queued before being evicted with
        ``503`` — bounds the work a collapsed daemon still owes.
    brownout_watermark:
        Queue length at which brownout starts (cheap ladder rungs,
        ``203`` answers).  ``None`` disables brownout.
    brownout_clear:
        Queue length at which brownout ends (hysteresis; defaults to
        ``brownout_watermark // 2``).
    max_query_states / max_query_bytes:
        Cost caps on a single query's predicted peak level dimension /
        operator+LU bytes (see :func:`repro.resilience.budget
        .predict_cost`).  An over-cap makespan query is down-tiered to
        the ``amva`` rung; anything else is shed with ``429``.
    retry_after:
        Advisory ``Retry-After`` seconds on shed responses.
    """

    max_inflight: int = 4
    queue_depth: int = 16
    queue_deadline: float = 2.0
    brownout_watermark: int | None = None
    brownout_clear: int | None = None
    max_query_states: int | None = None
    max_query_bytes: int | None = None
    retry_after: float = 1.0

    def __post_init__(self):
        if self.max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {self.max_inflight!r}"
            )
        if self.queue_depth < 0:
            raise ValueError(
                f"queue_depth must be >= 0, got {self.queue_depth!r}"
            )
        if self.queue_deadline <= 0:
            raise ValueError(
                f"queue_deadline must be > 0, got {self.queue_deadline!r}"
            )
        if self.brownout_watermark is not None and self.brownout_watermark < 1:
            raise ValueError(
                f"brownout_watermark must be >= 1 (or None), "
                f"got {self.brownout_watermark!r}"
            )
        if self.retry_after <= 0:
            raise ValueError(
                f"retry_after must be > 0, got {self.retry_after!r}"
            )

    @property
    def clear_mark(self) -> int:
        """Queue length at which brownout clears (hysteresis floor)."""
        if self.brownout_watermark is None:
            return 0
        if self.brownout_clear is not None:
            return min(self.brownout_clear, self.brownout_watermark)
        return self.brownout_watermark // 2


class AdmissionTicket:
    """One held solver slot; release exactly once, from any thread.

    The daemon attaches :meth:`release` as a done-callback on the
    *pool future* — so the slot frees when the computation finishes,
    whether or not the HTTP request that started it is still around.
    Releases are marshalled onto the controller's event loop, so the
    controller itself stays lock-free.
    """

    __slots__ = ("_controller", "_loop", "_released", "waited")

    def __init__(self, controller: "AdmissionController",
                 loop: asyncio.AbstractEventLoop, waited: float):
        self._controller = controller
        self._loop = loop
        self._released = False
        #: seconds this request spent queued before admission
        self.waited = waited

    def release(self) -> None:
        """Give the slot back (idempotent, thread-safe)."""
        if self._released:
            return
        self._released = True
        try:
            self._loop.call_soon_threadsafe(self._controller._release_slot)
        except RuntimeError:  # pragma: no cover - loop already closed
            pass


class AdmissionController:
    """Event-loop-confined overload controller (see module docstring)."""

    def __init__(self, config: AdmissionConfig | None = None,
                 instrument=None):
        self.config = config or AdmissionConfig()
        self._ins = instrument
        self._inflight = 0
        self._queue: deque[asyncio.Future] = deque()
        self._draining = False
        self._brownout_since: float | None = None
        # -- counters for stats() (metrics mirror these) ---------------
        self._admitted = 0
        self._shed: dict[str, int] = {r: 0 for r in SHED_REASONS}
        self._downtiered = 0
        self._brownout_solves = 0
        self._brownouts = 0
        self._brownout_seconds = 0.0
        self._abandoned = 0
        self._max_queue_seen = 0

    # -- public state ---------------------------------------------------
    @property
    def inflight(self) -> int:
        """Solves currently holding a slot (including abandoned work)."""
        return self._inflight

    @property
    def queued(self) -> int:
        """Requests currently waiting for a slot."""
        return len(self._queue)

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def brownout(self) -> bool:
        """True while the queue is past the brownout watermark."""
        return self._brownout_since is not None

    @property
    def idle(self) -> bool:
        """No slot held and nobody waiting (drain-completion signal)."""
        return self._inflight == 0 and not self._queue

    # -- admission ------------------------------------------------------
    async def acquire(self) -> AdmissionTicket:
        """Wait for (or be refused) one solver slot.

        Returns an :class:`AdmissionTicket` whose :meth:`~AdmissionTicket
        .release` must run when the work completes.  Raises
        :class:`ShedError` when the request is refused — queue full,
        queue deadline exceeded, or the daemon is draining.
        """
        loop = asyncio.get_running_loop()
        if self._draining:
            self._refuse("draining", "daemon is draining (SIGTERM received)",
                         code=503)
        if self._inflight < self.config.max_inflight:
            self._inflight += 1
            return self._admit(loop, 0.0)
        if len(self._queue) >= self.config.queue_depth:
            self._refuse(
                "queue-full",
                f"{self._inflight} solves in flight and "
                f"{len(self._queue)} queued (cap {self.config.queue_depth})",
                code=429,
            )
        waiter: asyncio.Future = loop.create_future()
        self._queue.append(waiter)
        self._max_queue_seen = max(self._max_queue_seen, len(self._queue))
        self._note_brownout()
        self._export_gauges()
        t0 = time.monotonic()
        try:
            await asyncio.wait_for(asyncio.shield(waiter),
                                   self.config.queue_deadline)
        except asyncio.TimeoutError:
            if not waiter.done():
                # Still queued: evict ourselves.
                self._queue.remove(waiter)
                waiter.cancel()
                self._note_brownout()
                self._refuse(
                    "queue-deadline",
                    f"queued {self.config.queue_deadline:g}s without a "
                    "free solver slot",
                    code=503,
                )
            # Granted in the same tick the deadline fired: the slot was
            # already transferred to this waiter — keep it.
        except asyncio.CancelledError:
            if waiter.cancelled():
                # Drain evicted us from the queue: settle as a shed.
                self._refuse("draining",
                             "daemon started draining while this request "
                             "was queued", code=503)
            # Our own task was cancelled from outside: tidy up and
            # propagate — give back a concurrently granted slot, or
            # leave the queue.
            if waiter.done():
                self._release_slot()
            else:
                self._queue.remove(waiter)
                waiter.cancel()
                self._note_brownout()
            raise
        return self._admit(loop, time.monotonic() - t0)

    def _admit(self, loop: asyncio.AbstractEventLoop,
               waited: float) -> AdmissionTicket:
        self._admitted += 1
        ins = self._ins
        if ins is not None:
            ins.count("repro_admission_total", outcome="admitted")
            ins.observe("repro_admission_wait_seconds", waited)
        self._export_gauges()
        return AdmissionTicket(self, loop, waited)

    def _refuse(self, reason: str, message: str, *, code: int) -> None:
        self._shed[reason] += 1
        ins = self._ins
        if ins is not None:
            ins.count("repro_shed_total", reason=reason)
            ins.count("repro_admission_total", outcome="shed")
        self._export_gauges()
        raise ShedError(reason, message, code=code,
                        retry_after=self.config.retry_after)

    def _release_slot(self) -> None:
        """Hand the freed slot to the oldest live waiter, else free it."""
        while self._queue:
            waiter = self._queue.popleft()
            if waiter.done():  # evicted or cancelled while queued
                continue
            waiter.set_result(None)  # slot transferred, _inflight steady
            self._note_brownout()
            self._export_gauges()
            return
        self._inflight = max(0, self._inflight - 1)
        self._note_brownout()
        self._export_gauges()

    # -- cost-aware admission -------------------------------------------
    def assess_cost(self, spec, K: int, *,
                    can_downtier: bool) -> tuple[str, "object | None"]:
        """Price a query before it touches the pool.

        Returns ``("admit", cost)`` when it fits the configured caps,
        ``("downtier", cost)`` when it busts them but ``can_downtier``
        (the daemon answers via the operator-free ``amva`` rung), and
        raises :class:`ShedError` (reason ``over-cost``, ``429``)
        otherwise.  ``cost`` is the
        :class:`~repro.resilience.budget.CostPrediction`, or ``None``
        when no cap is configured (prediction skipped).
        """
        cfg = self.config
        if cfg.max_query_states is None and cfg.max_query_bytes is None:
            return "admit", None
        from repro.resilience.budget import predict_cost

        cost = predict_cost(spec, K)
        over = (
            (cfg.max_query_states is not None
             and cost.peak_states > cfg.max_query_states)
            or (cfg.max_query_bytes is not None
                and cost.bytes > cfg.max_query_bytes)
        )
        if not over:
            return "admit", cost
        if can_downtier:
            self._downtiered += 1
            ins = self._ins
            if ins is not None:
                ins.count("repro_admission_total", outcome="downtier")
            return "downtier", cost
        self._refuse(
            "over-cost",
            f"predicted peak level dimension {cost.peak_states} "
            f"(≈{cost.bytes:.3g} bytes) exceeds the admission cost caps",
            code=429,
        )
        raise AssertionError("unreachable")  # pragma: no cover

    # -- brownout -------------------------------------------------------
    def _note_brownout(self) -> None:
        mark = self.config.brownout_watermark
        if mark is None:
            return
        qlen = len(self._queue)
        now = time.monotonic()
        if self._brownout_since is None:
            if qlen >= mark and not self._draining:
                self._brownout_since = now
                self._brownouts += 1
        elif qlen <= self.config.clear_mark or self._draining:
            elapsed = now - self._brownout_since
            self._brownout_since = None
            self._brownout_seconds += elapsed
            if self._ins is not None:
                self._ins.count("repro_brownout_seconds", elapsed)

    def note_brownout_solve(self) -> None:
        """Record one solve answered on a brownout-forced cheap rung."""
        self._brownout_solves += 1
        if self._ins is not None:
            self._ins.count("repro_admission_total", outcome="brownout")

    def note_abandoned(self) -> None:
        """Record one pool task abandoned by its (timed-out) request."""
        self._abandoned += 1
        if self._ins is not None:
            self._ins.count("repro_abandoned_work_total")

    # -- drain ----------------------------------------------------------
    def begin_drain(self) -> None:
        """Refuse all future work and evict every queued waiter."""
        if self._draining:
            return
        self._draining = True
        self._note_brownout()  # close an open brownout interval
        while self._queue:
            waiter = self._queue.popleft()
            if not waiter.done():
                waiter.cancel()
        self._export_gauges()

    # -- observability --------------------------------------------------
    def _export_gauges(self) -> None:
        ins = self._ins
        if ins is not None:
            ins.gauge("repro_admission_inflight", float(self._inflight))
            ins.gauge("repro_admission_queue_depth", float(len(self._queue)))

    def brownout_seconds(self) -> float:
        """Total brownout time, including any open interval."""
        total = self._brownout_seconds
        if self._brownout_since is not None:
            total += time.monotonic() - self._brownout_since
        return total

    def stats(self) -> dict:
        """Snapshot for ``/status`` and the fleet console."""
        cfg = self.config
        return {
            "max_inflight": cfg.max_inflight,
            "queue_depth": cfg.queue_depth,
            "queue_deadline": cfg.queue_deadline,
            "inflight": self._inflight,
            "queued": len(self._queue),
            "max_queue_seen": self._max_queue_seen,
            "admitted": self._admitted,
            "shed": {r: n for r, n in self._shed.items() if n},
            "shed_total": sum(self._shed.values()),
            "downtiered": self._downtiered,
            "brownout": self.brownout,
            "brownout_watermark": cfg.brownout_watermark,
            "brownouts": self._brownouts,
            "brownout_solves": self._brownout_solves,
            "brownout_seconds": round(self.brownout_seconds(), 6),
            "abandoned": self._abandoned,
            "draining": self._draining,
        }
