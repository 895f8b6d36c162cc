"""The graceful-degradation ladder.

A production caller of the exact transient solver wants an answer and an
honest label, not a stack trace.  :func:`solve_resilient` climbs down a
ladder of methods, each cheaper and/or more robust but less exact than
the one above, recording every attempt with a structured reason code:

1. ``exact`` — the sparse-LU epoch iteration with health guards armed;
2. ``refine`` — the same iteration, but every unhealthy solve is retried
   with one step of iterative refinement (recovers transient corruption
   and mild ill-conditioning);
3. ``dense`` — dense partial-pivoted LU per level (small state spaces
   only), which survives near-singular matrices that break sparse LU;
4. ``amva`` — the Reiser-style approximate-MVA estimate, which needs no
   level operators at all and therefore survives even state-space
   budget rejections and epoch caps below ``N``.

There is no cheaper exact rung to add: the stepped refill already stops
at its converged tail (``p(Y_K R_K)^i → p_ss``, PAPER.md §5), so the
``exact`` rung costs O(head + K) solves for any ``N``.

The ladder is **off by default** in the core API: plain
:class:`~repro.core.transient.TransientModel` never imports this module,
and ``solve_resilient`` with an all-default config reproduces its results
bit for bit (rung 1 with no faults applies no correction).  A
:class:`~repro.resilience.errors.PointTimeoutError` (a sweep point's
``RetryPolicy.timeout`` deadline) is never a rung failure: it leaves the
ladder at once, so the point times out and is retried.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.transient import TransientModel
from repro.jackson.amva import amva_analysis
from repro.network.spec import NetworkSpec
from repro.obs import runtime as _rt
from repro.obs.instrument import Instrumentation
from repro.resilience.budget import Budget, BudgetClock, enforce_budget
from repro.resilience.errors import (
    BudgetExceededError,
    PointTimeoutError,
    SolverError,
)
from repro.resilience.faults import FaultPlan, apply_faults
from repro.resilience.guards import DenseLevel, GuardConfig, GuardedLevel

__all__ = [
    "ResilienceConfig",
    "RungAttempt",
    "SolverReport",
    "ResilientResult",
    "ResilientSolver",
    "solve_resilient",
    "LADDER",
]

#: Canonical rung order, most exact first.
LADDER: tuple[str, ...] = ("exact", "refine", "dense", "amva")


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the resilience layer is allowed to do.

    Parameters
    ----------
    guards:
        Hot-path invariant tolerances (see :class:`GuardConfig`).
    budget:
        Resource caps enforced before and during the solve.
    faults:
        Deterministic fault plan (tests/drills only; ``None`` in service).
    ladder:
        Rung subset/order to attempt, from :data:`LADDER`.
    dense_dim_cap:
        Largest level dimension the dense rung will densify (quadratic
        memory beyond this is worse than the disease).
    """

    guards: GuardConfig = field(default_factory=GuardConfig)
    budget: Budget = field(default_factory=Budget)
    faults: FaultPlan | None = None
    ladder: tuple[str, ...] = LADDER
    dense_dim_cap: int = 2048

    def __post_init__(self):
        bad = [r for r in self.ladder if r not in LADDER]
        if bad:
            raise ValueError(f"unknown ladder rungs {bad!r}; valid: {LADDER}")


@dataclass
class RungAttempt:
    """One rung's outcome, reason-coded."""

    rung: str
    ok: bool
    #: stable code: "ok", or the failing SolverError's reason
    reason: str
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        mark = "✓" if self.ok else "✗"
        return f"{mark} {self.rung}: {self.reason}" + (
            f" — {self.detail}" if self.detail else ""
        )


@dataclass
class SolverReport:
    """Structured account of how (and how honestly) the answer was produced."""

    #: winning rung name ("exact", "refine", "dense", "amva")
    method: str
    #: True whenever the winning rung is not "exact"
    degraded: bool
    #: "ok" for a clean exact solve, else the reason code of the *first*
    #: failure — the root cause that pushed the solver down the ladder
    reason: str
    attempts: list[RungAttempt] = field(default_factory=list)
    #: predicted level dimensions [D(0), …, D(K)], when prediction ran
    predicted_dims: list[int] | None = None
    #: wall-clock seconds spent in the ladder
    elapsed: float = 0.0

    def summary(self) -> str:
        """One line for logs: method, degradation cause, attempt trail."""
        if not self.degraded:
            return f"exact solve ok ({self.elapsed:.3g}s)"
        trail = " -> ".join(
            f"{a.rung}[{'ok' if a.ok else a.reason}]" for a in self.attempts
        )
        return (
            f"degraded to '{self.method}' (root cause: {self.reason}) "
            f"via {trail} ({self.elapsed:.3g}s)"
        )


@dataclass
class ResilientResult:
    """The answer plus its provenance."""

    #: per-epoch mean inter-departure times (synthesized, not exact, for
    #: the amva rung)
    interdeparture_times: np.ndarray
    #: mean makespan under the winning method
    makespan: float
    report: SolverReport


class _RungModel(TransientModel):
    """A TransientModel view that shares the base model's assembled levels.

    Sparse operator assembly (and the Ξ_k enumeration behind it) is the
    expensive part of a solve; every rung reuses the base model's caches
    and only re-wraps the per-level solve surface for its own mode.
    """

    def __init__(self, base: TransientModel, cfg: ResilienceConfig, mode: str):
        # Deliberately not calling super().__init__: state spaces and raw
        # operators are shared with (and cached by) the base model.
        self._spec = base.spec
        self._K = base.K
        self._automata = base._automata
        self._spaces = base._spaces
        self._levels = {}
        self._entrance = {}
        self._instrument = None
        self._rbase = base
        self._rcfg = cfg
        self._rmode = mode

    def _build_level(self, k: int):
        ops = apply_faults(self._rbase.level(k), self._rcfg.faults)
        if self._rmode == "dense":
            return DenseLevel(ops, self._rcfg.guards)
        return GuardedLevel(
            ops, self._rcfg.guards, refine=(self._rmode == "refine")
        )


class ResilientSolver:
    """Climbs the degradation ladder for one ``(spec, K)`` system."""

    def __init__(self, spec: NetworkSpec, K: int, config: ResilienceConfig | None = None):
        self._spec = spec
        self._K = int(K)
        self._cfg = config if config is not None else ResilienceConfig()
        self._base: TransientModel | None = None

    # ------------------------------------------------------------------
    @property
    def config(self) -> ResilienceConfig:
        return self._cfg

    def _effective_budget(self) -> Budget:
        budget = self._cfg.budget
        faults = self._cfg.faults
        if faults is not None and faults.starve_budget:
            budget = replace(budget, max_bytes=1)
        return budget

    def _base_model(self) -> TransientModel:
        if self._base is None:
            self._base = TransientModel(self._spec, self._K)
        return self._base

    def _rung_model(self, mode: str) -> _RungModel:
        return _RungModel(self._base_model(), self._cfg, mode)

    @staticmethod
    def _note_rung(attempt: RungAttempt, *, outcome: str) -> None:
        """Record a ladder-rung verdict (counter + span event) when observed.

        The label values are stable by construction: ``rung`` comes from
        :data:`LADDER`, ``outcome`` from {ok, failed, skipped}, ``reason``
        is ``"ok"`` or a :class:`~repro.resilience.errors.SolverError`
        reason code.
        """
        ins = _rt.ACTIVE
        if ins is None:
            return
        ins.count(
            "repro_ladder_rung_total",
            rung=attempt.rung,
            outcome=outcome,
            reason=attempt.reason,
        )
        ins.event(
            "rung_attempt",
            rung=attempt.rung,
            outcome=outcome,
            reason=attempt.reason,
        )

    # -- individual rungs ----------------------------------------------
    def _run_exactish(
        self, N: int, mode: str, budget: Budget, clock: BudgetClock
    ) -> np.ndarray:
        if budget.max_epochs is not None and N > budget.max_epochs:
            raise BudgetExceededError(
                f"{mode}: needs {N} epochs, over the work cap "
                f"{budget.max_epochs}",
                budget_kind="epochs",
                needed=N,
                limit=budget.max_epochs,
            )
        model = self._rung_model(mode)
        if mode == "dense":
            peak = max(model.level_dim(k) for k in range(1, min(self._K, N) + 1))
            if peak > self._cfg.dense_dim_cap:
                raise BudgetExceededError(
                    f"dense: peak level dimension {peak} exceeds the dense "
                    f"cap {self._cfg.dense_dim_cap}",
                    budget_kind="states",
                    needed=peak,
                    limit=self._cfg.dense_dim_cap,
                )
        if budget.max_seconds is not None:
            # Without a time cap every check is a no-op; an unarmed hook
            # keeps the per-epoch call off the walk (and its O(N) tail).
            model.instrument = Instrumentation(
                on_epoch=lambda j, k, x: clock.check(f"{mode} epoch {j}")
            )
        return model.interdeparture_times(N)

    def _run_amva(self, N: int, clock: BudgetClock) -> np.ndarray:
        try:
            sol = amva_analysis(self._spec, min(self._K, N))
        except ValueError as exc:
            raise SolverError(f"amva estimate unavailable: {exc}") from exc
        clock.check("amva")
        return np.full(N, sol.interdeparture_time)

    # ------------------------------------------------------------------
    def solve(self, N: int) -> ResilientResult:
        """Produce epoch times + makespan by the highest rung that works."""
        N = TransientModel._validate_N(N)
        budget = self._effective_budget()
        clock = budget.start_clock()
        attempts: list[RungAttempt] = []
        predicted: list[int] | None = None

        # State-space budget gate: every level-building rung needs it.
        budget_error: BudgetExceededError | None = None
        try:
            predicted = enforce_budget(self._spec, self._K, budget)
        except BudgetExceededError as exc:
            budget_error = exc

        times: np.ndarray | None = None
        method: str | None = None
        for rung in self._cfg.ladder:
            needs_levels = rung != "amva"
            if needs_levels and budget_error is not None:
                attempt = RungAttempt(
                    rung, False, budget_error.reason, str(budget_error)
                )
                attempts.append(attempt)
                self._note_rung(attempt, outcome="skipped")
                continue
            ins = _rt.ACTIVE
            ctx = (
                ins.span("fallback_rung", rung=rung, N=N)
                if ins is not None else nullcontext()
            )
            try:
                with ctx:
                    if rung in ("exact", "refine", "dense"):
                        times = self._run_exactish(N, rung, budget, clock)
                    else:
                        times = self._run_amva(N, clock)
            except PointTimeoutError:
                # The caller's point deadline, not this rung's failure:
                # a cheaper rung must not run on the caller's lapsed time.
                raise
            except SolverError as exc:
                attempt = RungAttempt(rung, False, exc.reason, str(exc))
                attempts.append(attempt)
                self._note_rung(attempt, outcome="failed")
                continue
            attempt = RungAttempt(rung, True, "ok")
            attempts.append(attempt)
            self._note_rung(attempt, outcome="ok")
            method = rung
            break

        if times is None or method is None:
            root = attempts[0] if attempts else None
            err = SolverError(
                "all degradation-ladder rungs failed: "
                + "; ".join(f"{a.rung}: {a.detail or a.reason}" for a in attempts)
            )
            err.report = SolverReport(
                method="none",
                degraded=True,
                reason=root.reason if root else "solver-error",
                attempts=attempts,
                predicted_dims=predicted,
                elapsed=clock.elapsed,
            )
            raise err

        degraded = method != "exact"
        first_fail = next((a for a in attempts if not a.ok), None)
        report = SolverReport(
            method=method,
            degraded=degraded,
            reason="ok" if not degraded else (
                first_fail.reason if first_fail is not None else "ladder-config"
            ),
            attempts=attempts,
            predicted_dims=predicted,
            elapsed=clock.elapsed,
        )
        return ResilientResult(
            interdeparture_times=times,
            makespan=float(times.sum()),
            report=report,
        )


def solve_resilient(
    spec: NetworkSpec,
    K: int,
    N: int,
    config: ResilienceConfig | None = None,
) -> ResilientResult:
    """One-call resilient solve: ladder + report (see module docstring)."""
    return ResilientSolver(spec, K, config).solve(N)
