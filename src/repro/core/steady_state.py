"""Steady-state (product-form limit) of the transient model (paper §6.1.2).

For a large backlog the epoch operator ``Y_K R_K`` is applied many times
and the state mix converges to its stationary left eigenvector:

.. math::

    p_{ss} (Y_K R_K) = p_{ss}, \\qquad p_{ss}\\,ε = 1,

giving the steady-state inter-departure time ``t_{ss} = p_{ss} τ'_K`` and
throughput ``1/t_{ss}``.  For all-exponential networks this equals the
Jackson/Gordon–Newell product-form solution (cross-checked against the
Buzen convolution baseline in the test suite); for non-exponential shared
servers it extends the product form to systems Jackson networks cannot
describe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util.linalg import stationary_left_vector
from repro.core.transient import TransientModel
from repro.obs.instrument import profiled
from repro.resilience.errors import ConvergenceError

__all__ = ["SteadyState", "solve_steady_state", "time_stationary_distribution"]


@dataclass(frozen=True)
class SteadyState:
    """Stationary regime of the fully-backlogged system."""

    #: stationary state mix over Ξ_K (left eigenvector of Y_K R_K)
    p_ss: np.ndarray
    #: mean inter-departure time t_ss = p_ss τ'_K
    interdeparture_time: float

    @property
    def throughput(self) -> float:
        """Task completions per unit time, ``1 / t_ss``."""
        return 1.0 / self.interdeparture_time


@profiled(name="steady_state")
def solve_steady_state(
    model: TransientModel,
    *,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> SteadyState:
    """Stationary mix of ``Y_K R_K`` by matrix-free power iteration.

    The iteration starts from the filling vector ``p_K``, which is already
    close to stationarity in lightly-loaded systems.  Each step is the
    top level's ``apply_YR``: one LU solve and one sparse product.

    Raises
    ------
    ConvergenceError
        When the power iteration stalls or degenerates; re-raised with the
        level index ``K`` attached so callers (and the degradation ladder's
        report) can localize the failure.
    """
    top = model.level(model.K)
    x0 = model.entrance_vector(model.K)
    try:
        p_ss = stationary_left_vector(
            top.apply_YR, top.dim, x0=x0, tol=tol, max_iter=max_iter
        )
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"steady-state power iteration at level K={model.K}: {exc}",
            iterations=exc.iterations,
            tol=exc.tol,
            level=model.K,
            dim=top.dim,
            residuals=exc.residuals,
        ) from exc
    t_ss = top.mean_epoch_time(p_ss)
    return SteadyState(p_ss=p_ss, interdeparture_time=float(t_ss))


@profiled(name="time_stationary_distribution")
def time_stationary_distribution(
    model: TransientModel,
    *,
    tol: float = 1e-12,
    max_iter: int = 200_000,
) -> np.ndarray:
    """Time-stationary distribution of the backlogged (level-``K``) CTMC.

    :func:`solve_steady_state` returns the state mix *embedded at departure
    instants*; time averages (utilizations, mean queue lengths) need the
    continuous-time stationary law instead.  The two are related through
    the jump chain ``P_K + Q_K R_K``: its stationary vector ``ν`` weighted
    by mean state holding times ``1/[M_K]_{ii}`` gives the CTMC stationary
    distribution.
    """
    top = model.level(model.K)
    jump = (top.P + top.Q @ top.R).tocsr()

    # Damped power iteration guards against periodic embedded chains.
    def step(x: np.ndarray) -> np.ndarray:
        return 0.5 * x + 0.5 * (x @ jump)

    nu = stationary_left_vector(
        step, top.dim, x0=model.entrance_vector(model.K), tol=tol, max_iter=max_iter
    )
    pi = nu / top.rates
    return pi / pi.sum()
