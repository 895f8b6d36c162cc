"""Resource budgets: predict state-space growth *before* paying for it.

At ``K = 8`` with H2 stages the reduced product space reaches tens of
thousands of states per level; a mis-parameterized spec can ask for
millions.  Building the sparse operators first and discovering the blow-up
via the OOM killer is not a failure mode a service can live with, so this
module predicts every level dimension ``D(k)`` from the spec alone:

* each station automaton's local-state count per customer load ``n`` is a
  tiny closed-form/enumeration (exponential → 1; ``m``-stage delay bank →
  ``C(n+m−1, m−1)``; shared PH → stage count of the one in service),
* the global count is the convolution of the per-station counts over the
  compositions of ``k`` — a ``O(K² · M)`` integer DP, no enumeration.

:func:`enforce_budget` turns the prediction plus configured caps into a
:class:`~repro.resilience.errors.BudgetExceededError` before any level is
assembled; :class:`BudgetClock` polices wall-clock time during the solve.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from repro.network.spec import NetworkSpec
from repro.resilience.errors import BudgetExceededError

__all__ = [
    "Budget",
    "BudgetClock",
    "CostPrediction",
    "predict_cost",
    "predict_level_dims",
    "predict_peak_bytes",
    "enforce_budget",
]

#: Rough LU fill-in multiplier applied on top of the raw operator nonzeros
#: when estimating memory.  Deliberately conservative but not worst-case —
#: the reduced-product matrices are banded-ish and SuperLU's COLAMD keeps
#: fill low in practice.
_LU_FILL_FACTOR = 4.0

#: Bytes per stored sparse entry (value + index + amortized indptr).
_BYTES_PER_NNZ = 16.0


@dataclass(frozen=True)
class Budget:
    """Configured resource caps, all optional (``None`` = unlimited).

    Parameters
    ----------
    max_states:
        Cap on the *largest single level* dimension ``D(k)``.
    max_total_states:
        Cap on ``Σ_k D(k)`` across all levels kept alive by the solver.
    max_bytes:
        Cap on the predicted peak operator + LU memory.
    max_seconds:
        Wall-clock cap for a solve (checked cooperatively via
        :class:`BudgetClock`).
    max_epochs:
        Cap on the workload size ``N`` the level-building rungs accept;
        an ``N`` beyond this pushes the degradation ladder to the
        operator-free ``amva`` estimate.
    """

    max_states: int | None = None
    max_total_states: int | None = None
    max_bytes: int | None = None
    max_seconds: float | None = None
    max_epochs: int | None = None

    def start_clock(self) -> "BudgetClock":
        """Start a wall-clock watchdog for this budget."""
        return BudgetClock(max_seconds=self.max_seconds)

    @property
    def unlimited(self) -> bool:
        """True when no cap is configured."""
        return (
            self.max_states is None
            and self.max_total_states is None
            and self.max_bytes is None
            and self.max_seconds is None
            and self.max_epochs is None
        )


class BudgetClock:
    """Cooperative wall-clock watchdog.

    ``check(where)`` raises :class:`BudgetExceededError` once the elapsed
    time passes ``max_seconds``; call it at natural yield points (per
    epoch, per replication).  A ``None`` cap makes every check free.
    """

    def __init__(self, max_seconds: float | None = None):
        self.max_seconds = max_seconds
        self._t0 = time.monotonic()

    @property
    def elapsed(self) -> float:
        """Seconds since the clock started."""
        return time.monotonic() - self._t0

    def check(self, where: str = "solve") -> None:
        """Raise if the time budget is spent."""
        if self.max_seconds is None:
            return
        elapsed = self.elapsed
        if elapsed > self.max_seconds:
            raise BudgetExceededError(
                f"{where}: wall-clock budget exhausted "
                f"({elapsed:.3f}s elapsed, limit {self.max_seconds:.3f}s)",
                budget_kind="seconds",
                needed=elapsed,
                limit=self.max_seconds,
            )


def _station_state_counts(spec: NetworkSpec, K: int) -> list[list[int]]:
    """Per-station local-state count for loads ``0..K``, without global enumeration."""
    from repro.laqt.automata import automaton_for

    counts: list[list[int]] = []
    for st in spec.stations:
        auto = automaton_for(st)
        counts.append([len(auto.local_states(n)) for n in range(K + 1)])
    return counts


def predict_level_dims(spec: NetworkSpec, K: int) -> list[int]:
    """Predicted ``D(k)`` for ``k = 0..K`` — exact, by integer convolution.

    Matches ``TransientModel(spec, K).level_dim(k)`` for every ``k`` (the
    enumeration order differs, the count cannot), at a cost independent of
    the state-space size: per-station local-state counts are convolved
    over the load compositions.
    """
    if K < 0 or int(K) != K:
        raise ValueError(f"K must be a nonnegative integer, got {K!r}")
    K = int(K)
    dims = [1] + [0] * K  # one global state at level 0 (everything idle)
    for station_counts in _station_state_counts(spec, K):
        new = [0] * (K + 1)
        for k in range(K + 1):
            acc = 0
            for n in range(k + 1):
                acc += station_counts[n] * dims[k - n]
            new[k] = acc
        dims = new
    return dims


@dataclass(frozen=True)
class CostPrediction:
    """One query's predicted resource price, before anything is built.

    The admission controller of ``repro serve`` prices every query with
    this (exact ``D_RP(k)`` state counts, engineering byte estimate) so
    an oversized spec is rejected or down-tiered *before* it occupies a
    solver-pool slot.
    """

    #: predicted ``[D(0), …, D(K)]`` (exact integer convolution)
    dims: tuple[int, ...]
    #: largest single level dimension, ``max_k D(k)``
    peak_states: int
    #: ``Σ_k D(k)`` across all levels
    total_states: int
    #: estimated peak operator + LU bytes (see :func:`predict_peak_bytes`)
    bytes: float


def predict_cost(spec: NetworkSpec, K: int) -> CostPrediction:
    """Price ``(spec, K)``: exact level dims plus the byte estimate.

    A convenience bundle over :func:`predict_level_dims` and
    :func:`predict_peak_bytes` for callers (the service admission layer,
    capacity planners) that want the whole prediction in one object.
    """
    dims = predict_level_dims(spec, K)
    return CostPrediction(
        dims=tuple(dims),
        peak_states=max(dims),
        total_states=sum(dims),
        bytes=predict_peak_bytes(spec, dims),
    )


def _branching_bound(spec: NetworkSpec) -> float:
    """Crude per-state nonzero bound for ``P_k`` rows (events × routing fan-out)."""
    n = spec.n_stations
    max_stages = max(st.dist.n_stages for st in spec.stations)
    # Each of up to n stations can fire; a completion fans out over up to n
    # routing targets, each splitting over arrival stages.
    return float(n * (max_stages + n * max_stages))


def predict_peak_bytes(spec: NetworkSpec, dims: Sequence[int]) -> float:
    """Estimated peak operator + LU memory for the predicted level dims.

    This is an engineering estimate (documented factors, not a guarantee):
    ``nnz(P_k) ≲ D(k) × branching`` with the branching bound from the spec,
    doubled for ``Q_k``/``R_k``, times :data:`_LU_FILL_FACTOR` for the
    factorization and :data:`_BYTES_PER_NNZ` bytes per entry.
    """
    branch = _branching_bound(spec)
    nnz = sum(float(d) * branch * 2.0 for d in dims)
    return nnz * _LU_FILL_FACTOR * _BYTES_PER_NNZ


def enforce_budget(spec: NetworkSpec, K: int, budget: Budget | None) -> list[int]:
    """Predict level dims and raise before any level would bust a cap.

    Returns the predicted ``[D(0), …, D(K)]`` on success so callers can
    log or report them without recomputing.  Call it before building a
    :class:`~repro.core.transient.TransientModel` to refuse an over-large
    spec cheaply instead of discovering it by OOM; the degradation ladder
    does so for every level-building rung.
    """
    dims = predict_level_dims(spec, K)
    if budget is None or budget.unlimited:
        return dims
    peak = max(dims)
    if budget.max_states is not None and peak > budget.max_states:
        k_bad = dims.index(peak)
        raise BudgetExceededError(
            f"level {k_bad} needs {peak} states, over the per-level cap "
            f"{budget.max_states} (predicted before assembly)",
            budget_kind="states",
            needed=peak,
            limit=budget.max_states,
            level=k_bad,
            dim=peak,
        )
    total = sum(dims)
    if budget.max_total_states is not None and total > budget.max_total_states:
        raise BudgetExceededError(
            f"all {K + 1} levels together need {total} states, over the "
            f"total cap {budget.max_total_states}",
            budget_kind="states",
            needed=total,
            limit=budget.max_total_states,
        )
    if budget.max_bytes is not None:
        est = predict_peak_bytes(spec, dims)
        if est > budget.max_bytes:
            raise BudgetExceededError(
                f"predicted operator/LU memory ≈{est:.3g} bytes exceeds the "
                f"cap {budget.max_bytes} (estimate, fill factor "
                f"{_LU_FILL_FACTOR:g})",
                budget_kind="bytes",
                needed=est,
                limit=budget.max_bytes,
            )
    return dims
