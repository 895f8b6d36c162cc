"""Full (non-reduced) product-space backend.

Paper §5.4 motivates the reduced-product space by counting the full
Kronecker formulation at ``(2K+1)^K`` states: one coordinate per *task*.
This module implements that full formulation for exponential networks, as
an independent backend whose results must match the reduced model exactly
— the ``ablation_reduced_vs_product`` benchmark also measures the state
explosion the reduction avoids.

A full state at level ``k`` is the tuple of the ``k`` (distinguishable)
tasks' station indices.  For exponential service the departure process is
insensitive to queueing order, so a shared station with ``n`` tasks
completes *some* task at rate ``min(n, c)·µ``, chosen uniformly — giving
the same aggregated dynamics as FCFS.  Multi-stage stations are rejected:
the reduction is exactly what makes them tractable.

The enumeration order is lexicographic in the task tuple, so a state's
index is its base-``M`` reading, ``rank = Σ_t s_t · M^{k−1−t}`` — the
assembly below exploits this to compute every transition target
arithmetically over whole levels at once, mirroring the vectorized
reduced-space assembly in :mod:`repro.laqt.operators`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from itertools import product

from repro.core.transient import TransientModel
from repro.laqt.operators import LevelOperators, _coo_to_csr
from repro.network.spec import NetworkSpec
from repro.obs.instrument import Instrumentation

__all__ = ["FullProductModel"]


class _FullSpace:
    """All ordered assignments of ``k`` tasks to stations.

    Index arithmetic replaces enumeration: state ``i`` *is* the base-``M``
    expansion of ``i`` over ``k`` digits.  The tuple views ``states`` /
    ``index`` are materialized lazily for diagnostics only.
    """

    def __init__(self, n_stations: int, k: int):
        self.k = k
        self.n_stations = n_stations
        self._states: tuple[tuple, ...] | None = None
        self._index: dict[tuple, int] | None = None

    @property
    def dim(self) -> int:
        return self.n_stations**self.k

    @property
    def states(self) -> tuple[tuple, ...]:
        if self._states is None:
            self._states = (
                tuple(product(range(self.n_stations), repeat=self.k))
                if self.k
                else ((),)
            )
        return self._states

    @property
    def index(self) -> dict[tuple, int]:
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self.states)}
        return self._index


class FullProductModel(TransientModel):
    """Transient solver on the full Kronecker space (exponential networks).

    Same public interface as :class:`TransientModel` — including the
    ``instrument=`` keyword — with exponentially more states (``M^k`` per
    level instead of ``C(M+k−1, k)``).  It always runs the default epoch
    engine.
    """

    def __init__(
        self,
        spec: NetworkSpec,
        K: int,
        *,
        instrument: Instrumentation | Callable[[int, int, np.ndarray], None] | None = None,
    ):
        for st in spec.stations:
            if st.dist.n_stages != 1:
                raise ValueError(
                    f"station {st.name!r} is non-exponential; the full product "
                    "backend supports exponential networks only"
                )
        if K < 1 or int(K) != K:
            raise ValueError(f"K must be a positive integer, got {K!r}")
        self._spec = spec
        self._K = int(K)
        self.instrument = instrument
        self._automata = ()  # unused by this backend
        self._spaces = [_FullSpace(spec.n_stations, k) for k in range(self._K + 1)]
        self._levels: dict[int, LevelOperators] = {}
        self._entrance: dict[int, np.ndarray] = {}
        self._mu = np.array([st.dist.rates[0] for st in spec.stations])
        self._cap = np.array(
            [math.inf if st.is_delay else float(st.servers) for st in spec.stations]
        )

    # ------------------------------------------------------------------
    def _build_level(self, k: int) -> LevelOperators:
        spec = self._spec
        M = spec.n_stations
        space_k: _FullSpace = self._spaces[k]
        space_dn: _FullSpace = self._spaces[k - 1]
        dim = space_k.dim

        # digits[i, t] = station of task t in state i (base-M expansion).
        powers = M ** np.arange(k - 1, -1, -1, dtype=np.int64)
        idx = np.arange(dim, dtype=np.int64)
        digits = (idx[:, None] // powers[None, :]) % M
        counts = np.zeros((dim, M), dtype=np.int64)
        for j in range(M):
            counts[:, j] = (digits == j).sum(axis=1)
        # rate_table[j, n] = min(n, c_j)·µ_j — the aggregate rate of station
        # j holding n tasks.
        loads = np.arange(k + 1, dtype=float)
        rate_table = np.minimum(loads[None, :], self._cap[:, None]) * self._mu[:, None]
        rates = np.zeros(dim)
        for j in range(M):
            rates += rate_table[j][counts[:, j]]

        Pr: list[np.ndarray] = []
        Pc: list[np.ndarray] = []
        Pv: list[np.ndarray] = []
        Qr: list[np.ndarray] = []
        Qc: list[np.ndarray] = []
        Qv: list[np.ndarray] = []
        for t in range(k):
            j = digits[:, t]
            n_j = counts[idx, j]
            # Task t finishes at rate (station rate) / (tasks present):
            # uniform pick among the n_j tasks, valid for exponential service.
            w = (rate_table[j, n_j] / n_j) / rates
            for j2 in range(M):
                pmove = spec.routing[j, j2]
                live = np.flatnonzero(pmove > 0.0)
                if live.size:
                    Pr.append(idx[live])
                    Pc.append(idx[live] + (j2 - j[live]) * powers[t])
                    Pv.append(w[live] * pmove[live])
            pexit = spec.exit[j]
            live = np.flatnonzero(pexit > 0.0)
            if live.size:
                # Deleting digit t splices the prefix and suffix readings.
                hi = idx[live] // (powers[t] * M)
                lo = idx[live] % powers[t]
                Qr.append(idx[live])
                Qc.append(hi * powers[t] + lo)
                Qv.append(w[live] * pexit[live])
        P = _coo_to_csr(Pr, Pc, Pv, (dim, dim))
        Q = _coo_to_csr(Qr, Qc, Qv, (dim, space_dn.dim))

        # R: append the new task's digit — rank shifts by one base-M place.
        Rr: list[np.ndarray] = []
        Rc: list[np.ndarray] = []
        Rv: list[np.ndarray] = []
        idx_dn = np.arange(space_dn.dim, dtype=np.int64)
        for j in range(M):
            pj = float(spec.entry[j])
            if pj > 0.0:
                Rr.append(idx_dn)
                Rc.append(idx_dn * M + j)
                Rv.append(np.full(space_dn.dim, pj))
        R = _coo_to_csr(Rr, Rc, Rv, (space_dn.dim, dim))
        return LevelOperators(k=k, space=space_k, rates=rates, P=P, Q=Q, R=R)

    # ------------------------------------------------------------------
    def aggregate_to_reduced(self, x: np.ndarray, k: int) -> dict[tuple, float]:
        """Project a full-space vector onto occupancy counts (for tests)."""
        space: _FullSpace = self._spaces[k]
        out: dict[tuple, float] = {}
        for i, state in enumerate(space.states):
            key = tuple(np.bincount(state, minlength=self._spec.n_stations))
            out[key] = out.get(key, 0.0) + float(x[i])
        return out
