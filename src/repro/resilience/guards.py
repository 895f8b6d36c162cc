"""Hot-path numerical health guards.

The transient solver's inner loop is "solve, propagate, repeat" — a NaN
produced at epoch 3 silently poisons every later epoch, and probability
mass lost to roundoff accumulates across thousands of ``x ← x Y_K R_K``
applications.  The checks here are cheap (``O(dim)`` vector scans, one
norm estimate per factorization) and turn silent corruption into a
:class:`~repro.resilience.errors.NumericalHealthError` at the first
violation site.

All guards are *opt-in*: the default solver path never calls them, so
enabling the resilience layer cannot perturb existing results unless a
check actually fires (small mass drift is renormalized, which is the one
deliberate, bounded correction).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.obs import runtime as _rt
from repro.resilience.errors import NumericalHealthError

__all__ = [
    "GuardConfig",
    "LevelView",
    "GuardedLevel",
    "DenseLevel",
    "check_finite",
    "check_nonnegative",
    "check_stochastic",
    "lu_rcond",
]


def _note_trip(where: str, kind: str, level: int | None = None,
               value: float | None = None) -> None:
    """Record a guard intervention with the active instrumentation.

    ``kind`` is one of a small fixed vocabulary — ``nonfinite``,
    ``negative``, ``clip``, ``mass``, ``renorm``, ``rcond``, ``refine`` —
    so the ``repro_guard_trips_total`` label set stays dashboard-stable.
    """
    ins = _rt.ACTIVE
    if ins is None:
        return
    ins.count("repro_guard_trips_total", where=where, kind=kind)
    attrs = {"where": where, "kind": kind}
    if level is not None:
        attrs["level"] = level
    if value is not None:
        attrs["value"] = value
    ins.event("guard_trip", **attrs)


@dataclass(frozen=True)
class GuardConfig:
    """Tolerances of the hot-path invariant checks.

    Parameters
    ----------
    mass_tol:
        Probability-mass drift ``|sum(x) − 1|`` below this is accepted
        untouched; between ``mass_tol`` and ``mass_hard_tol`` the vector
        is renormalized (bounded drift correction); above it the epoch is
        declared unhealthy.
    mass_hard_tol:
        Drift beyond this is unrecoverable corruption, not roundoff.
    neg_tol:
        Entries in ``[−neg_tol, 0)`` are clipped to zero (LU roundoff);
        anything more negative is a real violation.
    rcond_min:
        Factorizations with estimated reciprocal condition number below
        this are flagged as numerically singular.
    check_rcond:
        Estimate ``rcond`` at factorization time (one
        :func:`scipy.sparse.linalg.onenormest` pass over the inverse).
    """

    mass_tol: float = 1e-9
    mass_hard_tol: float = 1e-6
    neg_tol: float = 1e-12
    rcond_min: float = 1e-13
    check_rcond: bool = True


def check_finite(
    x: np.ndarray | float,
    *,
    where: str,
    level: int | None = None,
) -> None:
    """Raise :class:`NumericalHealthError` if ``x`` contains NaN or ±inf."""
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        n_bad = int(np.size(arr) - np.isfinite(arr).sum())
        _note_trip(where, "nonfinite", level, float(n_bad))
        raise NumericalHealthError(
            f"{where}: {n_bad} non-finite entr{'y' if n_bad == 1 else 'ies'} "
            f"detected" + (f" at level {level}" if level is not None else ""),
            where=where,
            level=level,
            dim=int(np.size(arr)),
            value=float(n_bad),
        )


def check_nonnegative(
    x: np.ndarray,
    *,
    where: str,
    level: int | None = None,
    tol: float = 1e-12,
) -> np.ndarray:
    """Check ``x ≥ 0`` within ``tol``; clip roundoff undershoot to zero.

    Used for ``τ'_k`` (mean times to next departure must be nonnegative)
    and for probability vectors.  Returns ``x`` itself when already clean,
    a clipped copy when only roundoff undershoot was present.
    """
    check_finite(x, where=where, level=level)
    lo = float(x.min(initial=0.0))
    if lo >= 0.0:
        return x
    if lo < -tol:
        _note_trip(where, "negative", level, lo)
        raise NumericalHealthError(
            f"{where}: negative entry {lo:.3e} exceeds tolerance {tol:.1e}"
            + (f" at level {level}" if level is not None else ""),
            where=where,
            level=level,
            dim=int(x.shape[0]),
            value=lo,
        )
    _note_trip(where, "clip", level, lo)
    return np.clip(x, 0.0, None)


def check_stochastic(
    x: np.ndarray,
    cfg: GuardConfig,
    *,
    where: str,
    level: int | None = None,
) -> np.ndarray:
    """Validate a probability vector and apply bounded drift correction.

    Checks finiteness, nonnegativity within ``cfg.neg_tol``, and unit mass
    within ``cfg.mass_hard_tol``.  Drift in ``(mass_tol, mass_hard_tol]``
    is renormalized; the returned vector therefore always has
    ``|sum − 1| ≤ mass_tol`` or is byte-identical to the input.
    """
    x = check_nonnegative(np.asarray(x, dtype=float), where=where, level=level,
                          tol=cfg.neg_tol)
    total = float(x.sum())
    drift = abs(total - 1.0)
    if drift > cfg.mass_hard_tol or total <= 0.0:
        _note_trip(where, "mass", level, drift)
        raise NumericalHealthError(
            f"{where}: probability mass {total:.12g} drifted "
            f"{drift:.3e} from 1 (hard tolerance {cfg.mass_hard_tol:.1e})"
            + (f" at level {level}" if level is not None else ""),
            where=where,
            level=level,
            dim=int(x.shape[0]),
            value=drift,
            residuals=[drift],
        )
    if drift > cfg.mass_tol:
        _note_trip(where, "renorm", level, drift)
        return x / total
    return x


def lu_rcond(A: sp.spmatrix, lu: spla.SuperLU) -> float:
    """Cheap reciprocal-condition estimate of a factorized sparse matrix.

    Uses Higham's 1-norm estimator on both ``A`` and ``A⁻¹`` (the latter
    applied through the existing LU factors), so the cost is a handful of
    triangular solves — negligible next to the factorization itself.
    """
    n = A.shape[0]
    if n == 1:
        a = abs(float(A.toarray()[0, 0]))
        return 0.0 if a == 0.0 else 1.0
    norm_A = spla.onenormest(A)
    inv_op = spla.LinearOperator(
        (n, n),
        matvec=lambda b: lu.solve(np.asarray(b, dtype=float).ravel()),
        rmatvec=lambda b: lu.solve(np.asarray(b, dtype=float).ravel(), trans="T"),
    )
    try:
        norm_inv = spla.onenormest(inv_op)
    except (ValueError, ArithmeticError):
        # The estimator choked on the solves (NaN/inf propagation): if the
        # inverse cannot even be probed, report it as numerically singular.
        return 0.0
    denom = norm_A * norm_inv
    if not np.isfinite(denom) or denom <= 0.0:
        return 0.0
    return 1.0 / denom


def _forwarded(name: str) -> property:
    return property(lambda self: getattr(self._ops, name),
                    doc=f"The wrapped level's ``{name}``.")


class LevelView:
    """The operator surface of a wrapped level, forwarded unchanged.

    Base of the degradation ladder's level wrappers — :class:`GuardedLevel`,
    :class:`DenseLevel` and the test fake
    :class:`~repro.resilience.faults.FaultyLevel` — each of which
    overrides only the solves it checks, rescues or fakes.  The memory
    accounting forwards too, so a rung model charges exactly the
    operators it shares with the base model.
    """

    def __init__(self, ops):
        self._ops = ops

    k = _forwarded("k")
    dim = _forwarded("dim")
    space = _forwarded("space")
    rates = _forwarded("rates")
    P = _forwarded("P")
    Q = _forwarded("Q")
    R = _forwarded("R")

    def cached_bytes(self) -> int:
        return self._ops.cached_bytes()

    def cache_info(self) -> dict:
        return self._ops.cache_info()


class GuardedLevel(LevelView):
    """Level operators with hot-path health checks (and optional refinement).

    Wraps any :class:`~repro.laqt.operators.LevelOperators` lookalike and
    re-exposes the same surface, adding:

    * NaN/inf detection after every LU-backed solve,
    * ``τ'_k ≥ 0`` enforcement (roundoff undershoot clipped),
    * stochasticity of propagated epoch vectors (bounded-drift
      renormalization per :func:`check_stochastic`),
    * an rcond estimate at factorization time — numerically singular
      levels are rejected as
      :class:`~repro.resilience.errors.SingularLevelError` instead of
      silently producing garbage,
    * with ``refine=True``, one step of iterative refinement as a retry
      whenever a solve comes back unhealthy (recovers transient
      corruption and mild ill-conditioning without changing healthy
      results).
    """

    #: suffix of the check-site labels (``where=``) this backend reports
    _site = ""

    def __init__(self, ops, cfg: GuardConfig, *, refine: bool = False):
        super().__init__(ops)
        self._cfg = cfg
        self._refine = refine
        self._A: sp.csr_matrix | None = None
        self._rcond: float | None = None
        self._tau_checked: np.ndarray | None = None

    @property
    def A(self) -> sp.csr_matrix:
        """``I − P_k`` (cached; used for refinement and conditioning)."""
        if self._A is None:
            self._A = (sp.identity(self.dim, format="csr") - self.P).tocsr()
        return self._A

    # -- guarded factorization ------------------------------------------
    @property
    def lu(self):
        lu = self._ops.lu  # may raise SingularLevelError (exact/translated)
        if self._cfg.check_rcond and self._rcond is None:
            self._rcond = lu_rcond(self.A.tocsc(), lu)
            if self._rcond < self._cfg.rcond_min:
                _note_trip("lu", "rcond", self.k, self._rcond)
                from repro.resilience.errors import SingularLevelError

                raise SingularLevelError(
                    f"(I − P_{self.k}) is numerically singular: estimated "
                    f"rcond {self._rcond:.3e} below {self._cfg.rcond_min:.1e}",
                    level=self.k,
                    dim=self.dim,
                    stations=[a.station.name for a in self.space.automata],
                )
        return lu

    @property
    def rcond(self) -> float | None:
        """Estimated reciprocal condition number (once ``lu`` was touched)."""
        return self._rcond

    # -- unchecked solves (the dense rescue overrides these) -------------
    @staticmethod
    def _healthy(y: np.ndarray) -> bool:
        return bool(np.all(np.isfinite(y)))

    def _refined_left(self, x: np.ndarray) -> np.ndarray:
        """Solve ``z (I − P) = x`` from scratch with one refinement step."""
        lu = self.lu
        x = np.asarray(x, dtype=float)
        z = lu.solve(x, trans="T")
        r = x - z @ self.A
        return z + lu.solve(r, trans="T")

    def _solve_tau(self) -> np.ndarray:
        y = self._ops.tau
        if not self._healthy(y) and self._refine:
            _note_trip("tau", "refine", self.k)
            lu = self.lu
            b = 1.0 / self.rates
            y = lu.solve(b)
            y = y + lu.solve(b - self.A @ y)
        return y

    def _solve_Y(self, x: np.ndarray) -> np.ndarray:
        y = self._ops.apply_Y(x)
        if not self._healthy(y) and self._refine:
            _note_trip("apply_Y", "refine", self.k)
            y = self._refined_left(x) @ self.Q
        return y

    def _solve_YR(self, x: np.ndarray) -> np.ndarray:
        y = self._ops.apply_YR(x)
        if not self._healthy(y) and self._refine:
            _note_trip("apply_YR", "refine", self.k)
            y = (self._refined_left(x) @ self.Q) @ self.R
        return y

    # -- checked outputs --------------------------------------------------
    @property
    def tau(self) -> np.ndarray:
        if self._tau_checked is None:
            self._tau_checked = check_nonnegative(
                np.asarray(self._solve_tau(), dtype=float),
                where="tau" + self._site, level=self.k, tol=self._cfg.neg_tol,
            )
        return self._tau_checked

    def apply_Y(self, x: np.ndarray) -> np.ndarray:
        return check_stochastic(self._solve_Y(x), self._cfg,
                                where="apply_Y" + self._site, level=self.k)

    def apply_YR(self, x: np.ndarray) -> np.ndarray:
        return check_stochastic(self._solve_YR(x), self._cfg,
                                where="apply_YR" + self._site, level=self.k)

    def mean_epoch_time(self, x: np.ndarray) -> float:
        t = float(np.asarray(x, dtype=float) @ self.tau)
        if not np.isfinite(t) or t < 0.0:
            where = "mean_epoch_time" + self._site
            raise NumericalHealthError(
                f"{where}: got {t!r} at level {self.k}",
                where=where,
                level=self.k,
                dim=self.dim,
                value=t,
            )
        return t


class DenseLevel(GuardedLevel):
    """Dense pivoted-LU backend for small ill-conditioned levels.

    Sparse SuperLU can break down on nearly singular level matrices where
    dense partial pivoting still delivers a usable factorization.  This
    wrapper solves through :func:`scipy.linalg.lu_factor` instead —
    quadratic memory, so the degradation ladder only engages it below its
    ``dense_dim_cap``.  Outputs are checked as in :class:`GuardedLevel`;
    there is no rcond gate and no refinement.
    """

    _site = "(dense)"

    def __init__(self, ops, cfg: GuardConfig):
        import warnings

        import scipy.linalg as sla

        super().__init__(ops, cfg)
        A = np.eye(ops.dim) - ops.P.toarray()
        with warnings.catch_warnings():
            # lu_factor warns (LinAlgWarning) on exact singularity; we turn
            # the condition into a structured error below instead.
            warnings.simplefilter("ignore")
            lu, piv = sla.lu_factor(A)
        if np.any(np.diag(lu) == 0.0):
            from repro.resilience.errors import SingularLevelError

            raise SingularLevelError(
                f"(I − P_{ops.k}) is exactly singular even under dense "
                f"partial pivoting (level {ops.k}, {ops.dim} states)",
                level=ops.k,
                dim=ops.dim,
                stations=[a.station.name for a in ops.space.automata],
            )
        self._factors = (lu, piv)
        self._lu_solve = sla.lu_solve

    def _solve_tau(self) -> np.ndarray:
        return self._lu_solve(self._factors, 1.0 / self.rates)

    def _solve_Y(self, x: np.ndarray) -> np.ndarray:
        z = self._lu_solve(self._factors, np.asarray(x, dtype=float), trans=1)
        return z @ self.Q

    def _solve_YR(self, x: np.ndarray) -> np.ndarray:
        return self._solve_Y(x) @ self.R
