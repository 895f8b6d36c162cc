"""Test-only oracles for the transient solver.

Two independent routes to the numbers :class:`~repro.core.TransientModel`
returns, kept out of the package because nothing but tests and
benchmarks should ever pick them:

* the **solve recurrence** — the historical per-epoch engine: every
  refill epoch re-runs the transposed triangular solve of ``(I − P_K)``
  and two sparse products (``x ↦ (x (I − P_K)⁻¹ Q_K) R_K``), every drain
  epoch the solve and ``Q_k``, over a model's own operators and entrance
  vector.  It factors each level itself, in SuperLU's COLAMD order as the
  historical engine did, and builds no propagator and no eigenbasis, so
  it checks both epoch engines independently of their factorization, and
  it is the path the fig03 bit-identity pin was recorded on;
* the **reference assembly** — the per-state Python loops that
  :func:`~repro.laqt.operators.build_level` vectorizes, selected by
  :class:`ReferenceModel`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core.transient import TransientModel
from repro.laqt.automata import Completion, Internal, StationAutomaton
from repro.laqt.operators import LevelOperators
from repro.laqt.states import LevelSpace

__all__ = [
    "ReferenceModel",
    "build_entrance_reference",
    "build_level_reference",
    "epoch_vectors",
    "interdeparture_times",
    "makespan",
]


# -- the solve recurrence ----------------------------------------------
class _SolveLevel:
    """One level as the historical engine stepped it: a COLAMD LU of
    ``(I − P_k)``, ``τ'_k`` through it, and the solve-then-products step."""

    def __init__(self, ops):
        A = sp.identity(ops.dim, format="csc") - ops.P.tocsc()
        self._lu = spla.splu(A, permc_spec="COLAMD")
        self._Q, self._R = ops.Q, ops.R
        self.tau = self._lu.solve(1.0 / ops.rates)

    def apply_Y(self, x: np.ndarray) -> np.ndarray:
        return self._lu.solve(np.asarray(x, dtype=float), trans="T") @ self._Q

    def apply_YR(self, x: np.ndarray) -> np.ndarray:
        return self.apply_Y(x) @ self._R

    def mean_epoch_time(self, x: np.ndarray) -> float:
        return float(np.asarray(x, dtype=float) @ self.tau)


def _recurrence(model: TransientModel, N: int):
    """Yield ``(k, level, x)`` per epoch, stepping by LU solves (§4.1/§4.2)."""
    n = model._validate_N(N)
    k_active = min(model.K, n)
    levels = {k: _SolveLevel(model.level(k)) for k in range(1, k_active + 1)}
    top = levels[k_active]
    x = model.entrance_vector(k_active)
    for _ in range(n - k_active):
        yield k_active, top, x
        x = top.apply_YR(x)
    for k in range(k_active, 0, -1):
        ops = levels[k]
        yield k, ops, x
        if k > 1:
            x = ops.apply_Y(x)


def interdeparture_times(model: TransientModel, N: int) -> np.ndarray:
    """Mean inter-departure time of every epoch by the solve recurrence."""
    return np.array([ops.mean_epoch_time(x) for _, ops, x in _recurrence(model, N)])


def makespan(model: TransientModel, N: int) -> float:
    """Mean makespan by the solve recurrence (sum of the epoch means)."""
    return float(interdeparture_times(model, N).sum())


def epoch_vectors(model: TransientModel, N: int) -> list[np.ndarray]:
    """State mix at the start of every epoch by the solve recurrence."""
    return [np.array(x, dtype=float) for _, _, x in _recurrence(model, N)]


# -- the reference assembly --------------------------------------------
class ReferenceModel(TransientModel):
    """An unguarded :class:`TransientModel` whose levels come from the
    per-state loops."""

    def _build_level(self, k: int) -> LevelOperators:
        return build_level_reference(
            self._automata,
            self._spec.routing,
            self._spec.exit,
            self._spec.entry,
            self._spaces[k],
            self._spaces[k - 1],
        )


def build_level_reference(
    automata: Sequence[StationAutomaton],
    routing: np.ndarray,
    exit_vec: np.ndarray,
    entry_vec: np.ndarray,
    space_k: LevelSpace,
    space_km1: LevelSpace,
) -> LevelOperators:
    """Pure-Python reference assembly (the historical per-state loops).

    The semantic baseline for :func:`~repro.laqt.operators.build_level`:
    only one customer moves per event; a completion at station ``c``
    either routes into station ``c2`` and stays in Ξ_k, or exits the
    network and lands in Ξ_{k−1} (paper §5.4).
    """
    k = space_k.k
    if k < 1:
        raise ValueError(f"levels start at k=1, got {k}")
    dim = space_k.dim
    dim_dn = space_km1.dim
    n_stations = len(automata)

    rates = np.zeros(dim)
    P_rows: list[int] = []
    P_cols: list[int] = []
    P_vals: list[float] = []
    Q_rows: list[int] = []
    Q_cols: list[int] = []
    Q_vals: list[float] = []

    for i, state in enumerate(space_k.states):
        events: list[tuple[int, Internal | Completion]] = []
        total = 0.0
        for c in range(n_stations):
            for ev in automata[c].events(state[c]):
                events.append((c, ev))
                total += ev.rate
        if total <= 0.0:  # pragma: no cover - impossible for k >= 1
            raise RuntimeError(f"state {state!r} at level {k} has no events")
        rates[i] = total
        for c, ev in events:
            w = ev.rate / total
            if isinstance(ev, Internal):
                tgt = state[:c] + (ev.target,) + state[c + 1 :]
                P_rows.append(i)
                P_cols.append(space_k.index[tgt])
                P_vals.append(w)
                continue
            # Completion at station c: enumerate post-departure local states.
            for pr, local_after in ev.outcomes:
                base = state[:c] + (local_after,) + state[c + 1 :]
                # Route to another station (or back into c).
                for c2 in range(n_stations):
                    pmove = routing[c, c2]
                    if pmove <= 0:
                        continue
                    for pa, local_in in automata[c2].arrivals(base[c2]):
                        tgt = base[:c2] + (local_in,) + base[c2 + 1 :]
                        P_rows.append(i)
                        P_cols.append(space_k.index[tgt])
                        P_vals.append(w * pr * pmove * pa)
                # Leave the network.
                if exit_vec[c] > 0:
                    Q_rows.append(i)
                    Q_cols.append(space_km1.index[base])
                    Q_vals.append(w * pr * exit_vec[c])

    P = sp.csr_matrix((P_vals, (P_rows, P_cols)), shape=(dim, dim))
    Q = sp.csr_matrix((Q_vals, (Q_rows, Q_cols)), shape=(dim, dim_dn))
    R = build_entrance_reference(automata, entry_vec, space_km1, space_k)
    return LevelOperators(k=k, space=space_k, rates=rates, P=P, Q=Q, R=R)


def build_entrance_reference(
    automata: Sequence[StationAutomaton],
    entry_vec: np.ndarray,
    space_from: LevelSpace,
    space_to: LevelSpace,
) -> sp.csr_matrix:
    """Pure-Python reference for :func:`~repro.laqt.operators.build_entrance`."""
    if space_to.k != space_from.k + 1:
        raise ValueError(
            f"entrance must raise the level by one, got {space_from.k} → {space_to.k}"
        )
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    n_stations = len(automata)
    for i, state in enumerate(space_from.states):
        for c in range(n_stations):
            pc = entry_vec[c]
            if pc <= 0:
                continue
            for pa, local_in in automata[c].arrivals(state[c]):
                tgt = state[:c] + (local_in,) + state[c + 1 :]
                rows.append(i)
                cols.append(space_to.index[tgt])
                vals.append(pc * pa)
    return sp.csr_matrix((vals, (rows, cols)), shape=(space_from.dim, space_to.dim))
