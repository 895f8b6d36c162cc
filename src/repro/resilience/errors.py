"""Structured solver exceptions.

The exact transient solver can fail in four qualitatively different ways,
and a production caller needs to tell them apart without parsing message
strings:

* a level matrix ``I − P_k`` that cannot be factorized
  (:class:`SingularLevelError`),
* an iteration that will not settle (:class:`ConvergenceError`),
* a numerical invariant broken on the hot path — NaN/inf after a solve,
  an epoch vector losing probability mass, a negative mean time
  (:class:`NumericalHealthError`),
* a solve that would exceed a configured memory/time/work budget
  (:class:`BudgetExceededError`).

All of them derive from :class:`SolverError`, which itself derives from
``RuntimeError`` so existing ``except RuntimeError`` call sites keep
working.  Every exception carries machine-readable context (level index,
state-space dimension, residual history) and a stable :attr:`reason
<SolverError.reason>` code used by the degradation ladder's
``SolverReport``.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "SolverError",
    "SingularLevelError",
    "ConvergenceError",
    "NumericalHealthError",
    "BudgetExceededError",
    "SpectralFallbackError",
    "InjectedFaultError",
    "PointTimeoutError",
    "SweepError",
    "ShardError",
    "LeaseError",
    "OverloadError",
    "CircuitOpenError",
    "RetryBudgetExhaustedError",
]


class SolverError(RuntimeError):
    """Base class for structured transient-solver failures.

    Parameters
    ----------
    message:
        Human-readable description.
    level:
        Population level ``k`` the failure occurred at, when applicable.
    dim:
        State-space dimension ``D(k)`` at that level, when known.
    residuals:
        Trailing residual/defect history of the failing computation
        (power-iteration residuals, mass drifts, …), most recent last.
    """

    #: stable machine-readable failure code (overridden by subclasses)
    reason: str = "solver-error"

    def __init__(
        self,
        message: str,
        *,
        level: int | None = None,
        dim: int | None = None,
        residuals: Sequence[float] | None = None,
    ):
        super().__init__(message)
        self.level = level
        self.dim = dim
        self.residuals = [float(r) for r in residuals] if residuals is not None else []

    def context(self) -> dict:
        """Machine-readable failure context (for logs and reports)."""
        return {
            "reason": self.reason,
            "level": self.level,
            "dim": self.dim,
            "residuals": list(self.residuals),
            "message": str(self),
        }


class SingularLevelError(SolverError):
    """``I − P_k`` could not be factorized (exactly or numerically singular).

    Carries the offending level, its dimension and — when the operator
    assembly can identify them — the names of the station specs involved,
    so a bad spec can be pointed at directly.
    """

    reason = "singular-level"

    def __init__(
        self,
        message: str,
        *,
        level: int | None = None,
        dim: int | None = None,
        stations: Sequence[str] | None = None,
        residuals: Sequence[float] | None = None,
    ):
        super().__init__(message, level=level, dim=dim, residuals=residuals)
        self.stations = list(stations) if stations is not None else []

    def context(self) -> dict:
        ctx = super().context()
        ctx["stations"] = list(self.stations)
        return ctx


class ConvergenceError(SolverError):
    """An iterative computation failed to reach tolerance.

    ``iterations`` is the number of steps actually taken, ``tol`` the
    target; :attr:`SolverError.residuals` holds the trailing residual
    trace so the divergence/stall pattern is inspectable post mortem.
    """

    reason = "no-convergence"

    def __init__(
        self,
        message: str,
        *,
        iterations: int | None = None,
        tol: float | None = None,
        level: int | None = None,
        dim: int | None = None,
        residuals: Sequence[float] | None = None,
    ):
        super().__init__(message, level=level, dim=dim, residuals=residuals)
        self.iterations = iterations
        self.tol = tol

    def context(self) -> dict:
        ctx = super().context()
        ctx["iterations"] = self.iterations
        ctx["tol"] = self.tol
        return ctx


class NumericalHealthError(SolverError):
    """A hot-path numerical invariant was violated.

    ``where`` names the check site (e.g. ``"apply_YR"``, ``"tau"``,
    ``"epoch-vector"``); ``value`` is the offending scalar when a single
    number summarizes the violation (mass drift, most negative entry, …).
    """

    reason = "numerical-health"

    def __init__(
        self,
        message: str,
        *,
        where: str | None = None,
        value: float | None = None,
        level: int | None = None,
        dim: int | None = None,
        residuals: Sequence[float] | None = None,
    ):
        super().__init__(message, level=level, dim=dim, residuals=residuals)
        self.where = where
        self.value = None if value is None else float(value)

    def context(self) -> dict:
        ctx = super().context()
        ctx["where"] = self.where
        ctx["value"] = self.value
        return ctx


class BudgetExceededError(SolverError):
    """A configured resource budget would be (or was) exceeded.

    ``budget_kind`` is one of ``"states"``, ``"bytes"``, ``"seconds"``,
    ``"epochs"``; ``needed`` the predicted/observed requirement and
    ``limit`` the configured cap.
    """

    reason = "budget-exceeded"

    def __init__(
        self,
        message: str,
        *,
        budget_kind: str,
        needed: float | None = None,
        limit: float | None = None,
        level: int | None = None,
        dim: int | None = None,
    ):
        super().__init__(message, level=level, dim=dim)
        self.budget_kind = budget_kind
        self.needed = None if needed is None else float(needed)
        self.limit = None if limit is None else float(limit)

    def context(self) -> dict:
        ctx = super().context()
        ctx["budget_kind"] = self.budget_kind
        ctx["needed"] = self.needed
        ctx["limit"] = self.limit
        return ctx


class SpectralFallbackError(SolverError):
    """The spectral epoch engine declined and the LU-stepped walk is used.

    Raised by ``LevelOperators.spectral_YR()`` when the eigendecomposition
    of ``Y_K R_K`` is unavailable or untrustworthy.  ``cause`` is a short
    stable slug — one of ``"dim-cap"`` (the level is over
    :data:`~repro.laqt.operators.SPECTRAL_DIM_CAP`, so its dense ``Y·R``
    is not built to be decomposed), ``"eig-failed"`` (LAPACK did not
    converge or the eigenbasis is numerically singular), ``"nonfinite"`` (the
    decomposition contains NaN/inf), ``"residual"`` (the probe-epoch
    residual check failed: reconstructed powers drift from iterated
    ones) — and the instance :attr:`reason` is
    ``"spectral-<cause>"`` so ladder reports and the
    ``repro_spectral_fallbacks_total{reason}`` counter stay reason-coded.

    :class:`~repro.core.transient.TransientModel` always catches this and
    downgrades to ``propagation="propagator"``; it never escapes a solve.
    """

    reason = "spectral-unavailable"

    #: slugs accepted for ``cause`` (label-set stability, like guard kinds)
    CAUSES = ("dim-cap", "eig-failed", "nonfinite", "residual")

    def __init__(
        self,
        message: str,
        *,
        cause: str,
        level: int | None = None,
        dim: int | None = None,
        residuals: Sequence[float] | None = None,
    ):
        super().__init__(message, level=level, dim=dim, residuals=residuals)
        if cause not in self.CAUSES:
            raise ValueError(
                f"unknown spectral fallback cause {cause!r}; valid: {self.CAUSES}"
            )
        self.cause = cause
        self.reason = f"spectral-{cause}"

    def context(self) -> dict:
        ctx = super().context()
        ctx["cause"] = self.cause
        return ctx


class InjectedFaultError(SolverError):
    """A deterministic drill fault fired (tests and fault drills only).

    ``mode`` is ``"hang"`` or ``"fail"``; ``index`` and
    ``attempt`` identify the sweep point and the 1-based attempt the
    fault was keyed on.
    """

    reason = "injected-fault"

    def __init__(
        self,
        message: str,
        *,
        mode: str,
        index: int | None = None,
        attempt: int | None = None,
    ):
        super().__init__(message)
        self.mode = mode
        self.index = index
        self.attempt = attempt

    def context(self) -> dict:
        ctx = super().context()
        ctx["mode"] = self.mode
        ctx["index"] = self.index
        ctx["attempt"] = self.attempt
        return ctx


class PointTimeoutError(SolverError):
    """A sweep point attempt overran its ``RetryPolicy.timeout`` deadline.

    Raised from the ``SIGALRM`` handler that
    :func:`~repro.experiments.executor.run_attempts` arms around each
    attempt; the attempt is charged ``timeout`` and retried.
    """

    reason = "timeout"


class SweepError(SolverError):
    """A figure sweep could not complete: points failed beyond retry.

    Raised by :class:`~repro.experiments.executor.SweepExecutor` and
    :class:`~repro.experiments.shard.ShardExecutor` after supervision
    exhausts every attempt (retries plus the fallback) for at least one
    point.  Carries the run's
    :class:`~repro.experiments.executor.SweepReport` as :attr:`report`,
    so callers can tell salvaged partial work from a total loss; any
    completed point is already persisted when a checkpoint journal is
    attached, and ``--resume`` re-runs only the failures.
    """

    reason = "sweep-failed"

    def __init__(self, message: str, *, report=None):
        super().__init__(message)
        self.report = report

    def context(self) -> dict:
        ctx = super().context()
        ctx["failed_points"] = (
            [p.index for p in self.report.points if p.status == "failed"]
            if self.report is not None else []
        )
        return ctx


class ShardError(SolverError):
    """A distributed shard namespace is unusable or inconsistent.

    Raised by :class:`~repro.experiments.shard.ShardNamespace` on a
    manifest schema/version mismatch (two releases must never share a
    namespace — fingerprints would silently miss) and by
    :class:`~repro.experiments.shard.ShardExecutor` when a sweep can make
    no further progress: every remaining point failed locally beyond
    retry and no live peer holds a lease on any of them.
    """

    reason = "shard-failed"

    def __init__(self, message: str, *, shard_dir=None, report=None):
        super().__init__(message)
        self.shard_dir = None if shard_dir is None else str(shard_dir)
        self.report = report

    def context(self) -> dict:
        ctx = super().context()
        ctx["shard_dir"] = self.shard_dir
        return ctx


class LeaseError(ShardError):
    """A lease file is malformed or violates the protocol invariants.

    Carries the lease ``path`` and the ``owner`` recorded in it (when
    readable).  Raised on unparsable lease bodies and on schema
    mismatches; *expired* leases are never an error — they are the
    work-stealing signal.
    """

    reason = "lease-invalid"

    def __init__(self, message: str, *, path=None, owner: str | None = None):
        super().__init__(message)
        self.path = None if path is None else str(path)
        self.owner = owner

    def context(self) -> dict:
        ctx = super().context()
        ctx["path"] = self.path
        ctx["owner"] = self.owner
        return ctx


class OverloadError(SolverError):
    """The service kept shedding this request past every allowed retry.

    Raised by :class:`~repro.serve.client.ServeClient` when the daemon's
    admission controller refused the request (``429``/``503``, or a
    ``504`` per-request deadline) on the final attempt.  ``shed_reason``
    is the server's reason code when the response carried one (one of
    :data:`repro.serve.admission.SHED_REASONS`), ``code`` the last HTTP
    status, and ``retry_after`` the server's last advisory backoff.
    """

    reason = "overload-shed"

    def __init__(
        self,
        message: str,
        *,
        code: int | None = None,
        shed_reason: str | None = None,
        retry_after: float | None = None,
        attempts: int | None = None,
    ):
        super().__init__(message)
        self.code = code
        self.shed_reason = shed_reason
        self.retry_after = None if retry_after is None else float(retry_after)
        self.attempts = attempts

    def context(self) -> dict:
        ctx = super().context()
        ctx["code"] = self.code
        ctx["shed_reason"] = self.shed_reason
        ctx["retry_after"] = self.retry_after
        ctx["attempts"] = self.attempts
        return ctx


class CircuitOpenError(SolverError):
    """The client's circuit breaker is open: the request was not sent.

    A fleet of clients that keeps probing a collapsed daemon *is* the
    metastable feedback loop; an open breaker converts that load into an
    immediate local failure.  ``cooldown_remaining`` says how long until
    the next half-open probe is allowed.
    """

    reason = "circuit-open"

    def __init__(self, message: str, *, cooldown_remaining: float | None = None):
        super().__init__(message)
        self.cooldown_remaining = (
            None if cooldown_remaining is None else float(cooldown_remaining)
        )

    def context(self) -> dict:
        ctx = super().context()
        ctx["cooldown_remaining"] = self.cooldown_remaining
        return ctx


class RetryBudgetExhaustedError(SolverError):
    """The client's token-bucket retry budget refused another retry.

    Carries the budget's ``tokens`` at refusal time; the failed request
    is reported to the caller instead of amplified onto the wire.
    """

    reason = "retry-budget-exhausted"

    def __init__(self, message: str, *, tokens: float | None = None):
        super().__init__(message)
        self.tokens = None if tokens is None else float(tokens)

    def context(self) -> dict:
        ctx = super().context()
        ctx["tokens"] = self.tokens
        return ctx
