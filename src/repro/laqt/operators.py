"""Level operators ``M_k, P_k, Q_k, R_k`` and the solves built on them.

These are the multi-customer matrices of paper §3.1/§5.4, assembled from
the station automata and the network-level routing:

* ``M_k`` — diagonal completion-rate matrix: ``[M_k]_{ii}`` is the total
  event rate out of state ``i ∈ Ξ_k`` (stored as a vector);
* ``P_k`` — embedded one-step probabilities for events that keep the
  population at ``k`` (stage moves and completions routed to another
  station);
* ``Q_k`` — embedded probabilities of a *departure*, landing in Ξ_{k−1};
* ``R_k`` — entrance operator Ξ_{k−1} → Ξ_k (a new task joins per the
  network entry vector).

Row invariant: ``P_k ε + Q_k ε = ε`` and ``R_k ε = ε``.

Derived objects (paper §4):

* ``τ'_k = (I − P_k)⁻¹ M_k⁻¹ ε`` — mean time until the next departure;
* ``Y_k = (I − P_k)⁻¹ Q_k``    — state seen just after that departure.

``V_k = (I − P_k)⁻¹ M_k⁻¹`` and ``Y_k`` are **never formed** by the default
engine: each level keeps a sparse LU factorization of ``(I − P_k)``,
factored in the level's natural state order, and steps every epoch
through it.  A drain epoch ``x ↦ x Y_k`` is one transposed triangular
solve and one sparse product with ``Q_k``; a refill epoch ``x ↦ x Y_k
R_k`` is the same solve and one sparse product with ``Q_k R_k``, a CSR
formed once per level.  Only the opt-in spectral engine builds the dense
``Y_k R_k`` (below :data:`SPECTRAL_DIM_CAP`) to eigendecompose it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.laqt.automata import StationAutomaton
from repro.laqt.states import LevelSpace
from repro.obs import runtime as _rt
from repro.resilience.errors import SingularLevelError, SpectralFallbackError

__all__ = [
    "LevelOperators",
    "SpectralDecomposition",
    "build_level",
    "build_entrance",
]

#: largest level dimension the spectral engine decomposes: it forms the
#: dense ``Y_k R_k`` (32 MiB of float64 at the cap) and its eigenbasis.
SPECTRAL_DIM_CAP = 2048
#: column-block width of the multi-RHS solve that builds ``Y_k R_k``
PROPAGATOR_BLOCK_COLS = 128
#: resident bytes charged per SuperLU factor on top of its entries: the
#: factor object, its permutations and SuperLU's supernode bookkeeping.
#: Calibrated against process RSS (see :meth:`LevelOperators.cached_bytes`).
LU_FIXED_BYTES = 48 << 10
#: resident bytes charged per stored ``L + U`` entry (value, row index and
#: SuperLU's supernodal padding), calibrated with :data:`LU_FIXED_BYTES`.
LU_ENTRY_BYTES = 14
#: probe epochs of the spectral self-check: reconstructed powers are
#: compared against iterated gemvs at these exponents before the
#: decomposition is trusted (one near the transient, one deep enough to
#: stress eigenvalue powers).
SPECTRAL_PROBE_EPOCHS = (3, 64)
#: tolerance of the probe check on returned times: the sup-norm probe
#: residual times ``‖τ'_k‖∞`` (an epoch time is ``x·τ'``, so a vector
#: error is amplified by the mean-time scale).  Beyond it the
#: decomposition is declared ill-conditioned and the solver falls back
#: to the LU-stepped walk.  Matched to the 1e-10 cross-engine equivalence
#: bar pinned in benchmarks/test_ablation_spectral.py.
SPECTRAL_PROBE_TOL = 1e-10
#: eigenvalues within this distance of 1 belong to the unit eigenspace
#: (the Perron root is exactly 1 analytically; the computed one is 1±eps).
SPECTRAL_UNIT_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigendecomposition of a row-stochastic refill operator ``T = Y_K R_K``.

    ``T = V diag(w) V^{-1}`` with right eigenvectors in the *columns* of
    ``V``.  Because ``P ε + Q ε = ε`` and ``R ε = ε``, ``T`` is
    row-stochastic: its dominant eigenvalue is exactly 1 with right
    eigenvector ``ε``, and the refill recurrence ``x_{i+1} = x_i T`` is
    the power iteration of paper §5.  Left propagation to *any* epoch is
    therefore closed-form,

    .. math:: x\\,T^i = ((x V) \\odot w^i)\\,V^{-1},

    and the refill part of the makespan is a geometric series over the
    non-unit spectrum.  The computed Perron eigenvalue carries O(eps)
    error, so the unit eigenspace (``|w − 1| ≤`` :data:`SPECTRAL_UNIT_TOL`)
    is deflated analytically: its coefficients contribute ``c·m`` to the
    series, never ``c (1 − w^m)/(1 − w)`` with a catastrophically small
    denominator.
    """

    #: eigenvalues of ``T`` (complex, unsorted — LAPACK order)
    w: np.ndarray
    #: right eigenvectors, one per column
    V: np.ndarray
    #: inverse eigenbasis (``T = V diag(w) V^{-1}``)
    Vinv: np.ndarray
    #: mask of the unit eigenspace (the Perron root; >1 entry only for
    #: reducible/periodic operators, which the probe check rejects anyway)
    unit: np.ndarray
    #: spectral gap ``1 − max|w_j|`` over the non-unit spectrum — the
    #: exact geometric convergence rate of the refill power iteration
    gap: float
    #: sup-norm residual of the probe-epoch self-check
    residual: float

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def propagate(self, x: np.ndarray, i: int) -> np.ndarray:
        """``x T^i`` in closed form (exact powers, no step accumulation)."""
        if i == 0:
            return np.asarray(x, dtype=float).copy()
        y = np.asarray(x, dtype=float) @ self.V
        return np.ascontiguousarray(((y * self.w**i) @ self.Vinv).real)

    def _coefficients(self, x: np.ndarray, tau: np.ndarray) -> np.ndarray:
        """Modal coefficients ``c_j`` of ``t_i = x T^i τ' = Σ_j c_j w_j^i``."""
        return (np.asarray(x, dtype=float) @ self.V) * (
            self.Vinv @ np.asarray(tau, dtype=float)
        )

    def epoch_times(self, x: np.ndarray, tau: np.ndarray, m: int) -> np.ndarray:
        """``[x T^i τ']_{i=0}^{m-1}`` — every refill epoch mean in O(m·D)."""
        if m <= 0:
            return np.zeros(0)
        c = self._coefficients(x, tau)
        # Powers in bounded chunks: keeps the (chunk × D) scratch small
        # for the N=10⁴-scale sweeps this path exists for.
        out = np.empty(m)
        chunk = 4096
        for i0 in range(0, m, chunk):
            i1 = min(i0 + chunk, m)
            powers = self.w[None, :] ** np.arange(i0, i1)[:, None]
            out[i0:i1] = (powers @ c).real
        return out

    def refill_time_sum(self, x: np.ndarray, tau: np.ndarray, m: int) -> float:
        """``Σ_{i=0}^{m-1} x T^i τ'`` as a geometric series (O(D) per call).

        The unit eigenspace contributes ``c·m`` exactly; every non-unit
        eigenvalue sums to ``c (1 − w^m)/(1 − w)``.
        """
        if m <= 0:
            return 0.0
        c = self._coefficients(x, tau)
        total = complex(m) * c[self.unit].sum()
        w = self.w[~self.unit]
        cr = c[~self.unit]
        total += (cr * (1.0 - w**m) / (1.0 - w)).sum()
        return float(total.real)


@dataclass
class LevelOperators:
    """Operators for one population level ``k`` (see module docstring)."""

    k: int
    space: LevelSpace
    #: total event rate per state (diagonal of M_k)
    rates: np.ndarray
    #: embedded same-level transition probabilities (CSR, dim × dim)
    P: sp.csr_matrix
    #: embedded departure probabilities (CSR, dim × dim_{k−1})
    Q: sp.csr_matrix
    #: entrance operator from the level below (CSR, dim_{k−1} × dim)
    R: sp.csr_matrix

    def __post_init__(self):
        self._lu: spla.SuperLU | None = None
        self._tau: np.ndarray | None = None
        self._Qt: sp.csr_matrix | None = None
        self._QRt: sp.csr_matrix | None = None
        self._spectral_YR: SpectralDecomposition | None = None

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Number of states at this level."""
        return self.space.dim

    @property
    def lu(self) -> spla.SuperLU:
        """Sparse LU of ``(I − P_k)``, built lazily and cached.

        Raises
        ------
        SingularLevelError
            When SuperLU reports the factor singular.  The structured
            error names the level, its dimension, and — when identifiable
            from vanishing rows — the station specs trapping the
            probability mass, instead of scipy's bare ``RuntimeError``.
        """
        if self._lu is None:
            ins = _rt.ACTIVE
            if ins is None:
                self._lu = self._factorize()
            else:
                with ins.span("factorize", level=self.k, dim=self.dim,
                              nnz=int(self.P.nnz)) as span:
                    self._lu = self._factorize()
                ins.count("repro_factorizations_total")
                if span is not None and span.wall is not None:
                    ins.observe("repro_factorization_seconds", span.wall)
        return self._lu

    def _factorize(self) -> spla.SuperLU:
        A = sp.identity(self.dim, format="csc") - self.P.tocsc()
        try:
            # Natural order factors these reduced-product levels faster
            # than COLAMD, with far less fill on the large ones
            # (benchmarks/test_ablation_ordering.py).
            return spla.splu(A, permc_spec="NATURAL")
        except RuntimeError as exc:
            if "singular" not in str(exc).lower():
                raise
            raise self._singular_error(A, exc) from exc

    def _singular_error(self, A: sp.csc_matrix, exc: Exception) -> SingularLevelError:
        """Build a :class:`SingularLevelError` naming the offending stations."""
        automata = self.space.automata
        # Rows of (I − P_k) that vanished identify absorbing states; the
        # stations holding customers there are the specs to look at.
        zero_rows = np.flatnonzero(np.asarray(np.abs(A).sum(axis=1)).ravel() == 0.0)
        offenders = sorted(
            {
                automata[c].station.name
                for i in zero_rows
                for c, local in enumerate(self.space.states[i])
                if automata[c].count(local) > 0
            }
        )
        if not offenders:
            offenders = [a.station.name for a in automata]
        return SingularLevelError(
            f"sparse LU of (I − P_{self.k}) failed at level {self.k} "
            f"({self.dim} states): {exc}; suspect station spec(s): "
            + ", ".join(repr(n) for n in offenders),
            level=self.k,
            dim=self.dim,
            stations=offenders,
        )

    @property
    def tau(self) -> np.ndarray:
        """``τ'_k = (I − P_k)⁻¹ M_k⁻¹ ε``: mean time to the next departure."""
        if self._tau is None:
            self._tau = self.lu.solve(1.0 / self.rates)
            ins = _rt.ACTIVE
            if ins is not None:
                ins.count("repro_sparse_solves_total", kind="tau")
        return self._tau

    @property
    def Qt(self) -> sp.csr_matrix:
        """``Q_kᵀ`` as CSR, formed once: the sparse half of a drain step."""
        if self._Qt is None:
            self._Qt = self.Q.T.tocsr()
        return self._Qt

    @property
    def QRt(self) -> sp.csr_matrix:
        """``(Q_k R_k)ᵀ`` as CSR, formed once: the sparse half of a refill step."""
        if self._QRt is None:
            self._QRt = (self.Q @ self.R).T.tocsr()
        return self._QRt

    # -- epoch steps (paper §4: one Y_k per drain, one Y_k R_k per refill) --
    def apply_Y(self, x: np.ndarray) -> np.ndarray:
        """``x ↦ x Y_k`` with ``Y_k = (I − P_k)⁻¹ Q_k`` (state after a departure)."""
        return self.Qt @ self.lu.solve(x, trans="T")

    def apply_YR(self, x: np.ndarray) -> np.ndarray:
        """``x ↦ x Y_k R_k``: departure immediately followed by a refill."""
        return self.QRt @ self.lu.solve(x, trans="T")

    def mean_epoch_time(self, x: np.ndarray) -> float:
        """Mean time to the next departure from state mix ``x``: ``x τ'_k``."""
        return float(np.asarray(x, dtype=float) @ self.tau)

    # -- the dense Y_k R_k (spectral engine only) ------------------------
    def _solve_columns(self, B: sp.spmatrix) -> np.ndarray:
        """``(I − P_k)^{-1} B`` through the cached LU, in column blocks.

        Blocking bounds the dense right-hand-side scratch to
        ``dim × PROPAGATOR_BLOCK_COLS`` regardless of how wide ``B`` is.
        """
        lu = self.lu
        ncols = B.shape[1]
        out = np.empty((self.dim, ncols))
        Bc = B.tocsc()
        for j0 in range(0, ncols, PROPAGATOR_BLOCK_COLS):
            j1 = min(j0 + PROPAGATOR_BLOCK_COLS, ncols)
            out[:, j0:j1] = lu.solve(Bc[:, j0:j1].toarray())
        return out

    def _propagator(self) -> np.ndarray:
        """Dense ``Y_k R_k`` by a blocked multi-column solve over ``Q_k``."""
        return self._solve_columns(self.Q) @ self.R  # dense @ csr: ndarray

    def _build_propagator(self) -> np.ndarray:
        ins = _rt.ACTIVE
        if ins is None:
            return self._propagator()
        with ins.span("propagator", level=self.k, kind="YR", dim=self.dim,
                      storage="dense"):
            mat = self._propagator()
        ins.count("repro_propagators_built_total", kind="YR", storage="dense")
        return mat

    # -- spectral refill engine (paper §5: the refill is a power iteration) --
    def spectral_YR(self) -> SpectralDecomposition:
        """Cached eigendecomposition of the refill operator ``Y_k R_k``.

        Built once per level under an ``eig_decompose`` span and
        self-checked at the :data:`SPECTRAL_PROBE_EPOCHS` before being
        trusted — reconstructed powers must match iterated gemvs to
        within :data:`SPECTRAL_PROBE_TOL` once the sup-norm residual is
        scaled by ``‖τ'_k‖∞``, so the bound holds for the epoch times
        the engine returns, not only for its probe vectors.

        Raises
        ------
        SpectralFallbackError
            Reason-coded refusal (``dim-cap`` / ``eig-failed`` /
            ``nonfinite`` / ``residual``) when the decomposition is
            unavailable or numerically untrustworthy.  Callers downgrade
            to the LU-stepped walk; a wrong answer is never produced from
            a bad eigenbasis.
        """
        if self._spectral_YR is None:
            ins = _rt.ACTIVE
            if ins is None:
                self._spectral_YR = self._eig_decompose()
            else:
                with ins.span("eig_decompose", level=self.k,
                              dim=self.dim) as span:
                    self._spectral_YR = self._eig_decompose()
                if span is not None:
                    span.attrs["gap"] = self._spectral_YR.gap
                    span.attrs["residual"] = self._spectral_YR.residual
        return self._spectral_YR

    def _eig_decompose(self) -> SpectralDecomposition:
        if self.dim > SPECTRAL_DIM_CAP:
            raise SpectralFallbackError(
                f"level {self.k}: dim {self.dim} is over the spectral cap "
                f"{SPECTRAL_DIM_CAP}; the dense Y·R it would decompose is "
                "not built",
                cause="dim-cap", level=self.k, dim=self.dim,
            )
        T = self._build_propagator()
        try:
            w, V = np.linalg.eig(T)
            Vinv = np.linalg.inv(V)
            # One Newton step on the inverse (X ← X(2I − VX)) shaves an
            # order of magnitude off the reconstruction error of mildly
            # ill-conditioned eigenbases for two extra matmuls.
            Vinv = Vinv @ (2.0 * np.eye(V.shape[0]) - V @ Vinv)
        except np.linalg.LinAlgError as exc:
            raise SpectralFallbackError(
                f"level {self.k}: eigendecomposition of Y·R failed: {exc}",
                cause="eig-failed", level=self.k, dim=self.dim,
            ) from exc
        if not (np.all(np.isfinite(w.view(float)))
                and np.all(np.isfinite(V.view(float)))
                and np.all(np.isfinite(Vinv.view(float)))):
            raise SpectralFallbackError(
                f"level {self.k}: eigendecomposition of Y·R contains "
                "non-finite entries",
                cause="nonfinite", level=self.k, dim=self.dim,
            )
        unit = np.abs(w - 1.0) <= SPECTRAL_UNIT_TOL
        rest = np.abs(w[~unit])
        gap = float(1.0 - rest.max()) if rest.size else 1.0
        decomp = SpectralDecomposition(
            w=w, V=V, Vinv=Vinv, unit=unit, gap=gap, residual=0.0,
        )
        # Probe check: closed-form powers must agree with iterated gemvs
        # from a uniform probe mix before the decomposition is trusted.
        # Times are x·τ', so the vector residual is judged at τ's scale.
        tau_scale = float(np.max(np.abs(self.tau)))
        probe = np.full(self.dim, 1.0 / self.dim)
        residual = 0.0
        x = probe
        at = 0
        residuals: list[float] = []
        for i in sorted(SPECTRAL_PROBE_EPOCHS):
            for _ in range(i - at):
                x = x @ T
            at = i
            r = float(np.max(np.abs(decomp.propagate(probe, i) - x)))
            residuals.append(r)
            residual = max(residual, r)
        if residual * tau_scale > SPECTRAL_PROBE_TOL:
            raise SpectralFallbackError(
                f"level {self.k}: spectral probe residual {residual:.3e} "
                f"× ‖τ'‖∞ {tau_scale:.3g} over {SPECTRAL_PROBE_TOL:.1e} at "
                f"epochs {tuple(sorted(SPECTRAL_PROBE_EPOCHS))}; eigenbasis too "
                "ill-conditioned to trust",
                cause="residual", level=self.k, dim=self.dim,
                residuals=residuals,
            )
        object.__setattr__(decomp, "residual", residual)
        return decomp

    # -- cache-extraction surface (repro.serve.cache byte accounting) --
    @staticmethod
    def _stored_bytes(obj) -> int:
        """Bytes held by one cached artifact (ndarray, CSR, or None)."""
        if obj is None:
            return 0
        if isinstance(obj, np.ndarray):
            return int(obj.nbytes)
        if sp.issparse(obj):
            return int(obj.data.nbytes + obj.indices.nbytes
                       + obj.indptr.nbytes)
        return 0

    def cached_bytes(self) -> int:
        """Resident bytes of this level: operators plus every lazy cache.

        Counts the assembled ``P/Q/R`` and rate vector, then whatever the
        lazy surfaces have materialized so far: ``τ'``, the ``Q_kᵀ`` and
        ``(Q_k R_k)ᵀ`` step products, the LU factor and the spectral
        eigentriple.  A SuperLU factor is charged
        :data:`LU_FIXED_BYTES` plus :data:`LU_ENTRY_BYTES` per stored
        entry (``SuperLU.nnz``), fitted to the process RSS factors of
        5–985 states add on the central and distributed clusters (a
        5-state factor holds 30 entries but 10–21 KiB).  A warm model's
        RSS is 1.1–1.3× its charge; state-space arrays and object headers
        are not counted.  This is the number the model cache's
        byte-budget eviction sums, so it grows as a model warms up.
        """
        total = int(self.rates.nbytes)
        for mat in (self.P, self.Q, self.R, self._tau, self._Qt, self._QRt):
            total += self._stored_bytes(mat)
        if self._lu is not None:
            total += LU_FIXED_BYTES + LU_ENTRY_BYTES * int(self._lu.nnz)
        sd = self._spectral_YR
        if sd is not None:
            total += int(sd.w.nbytes + sd.V.nbytes + sd.Vinv.nbytes
                         + sd.unit.nbytes)
        return total

    def cache_info(self) -> dict:
        """What this level holds warm (one row of a cache status doc)."""
        return {
            "level": self.k,
            "dim": self.dim,
            "nnz": int(self.P.nnz + self.Q.nnz + self.R.nnz),
            "bytes": self.cached_bytes(),
            "lu": self._lu is not None,
            "tau": self._tau is not None,
            "spectral": self._spectral_YR is not None,
        }

    def dense_Y(self) -> np.ndarray:
        """Dense ``Y_k`` (tests/ablations only — quadratic memory in ``dim``)."""
        inv = self.lu.solve(np.eye(self.dim))
        return inv @ self.Q.toarray()

    def dense_V(self) -> np.ndarray:
        """Dense ``V_k = (I − P_k)⁻¹ M_k⁻¹`` (tests/ablations only — quadratic
        memory in ``dim``)."""
        inv = self.lu.solve(np.eye(self.dim))
        return inv @ np.diag(1.0 / self.rates)


def _ragged_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]) ++ [0..counts[1]) ++ …`` as one flat array."""
    total = int(counts.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64)
    ends = np.cumsum(counts)
    return np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)


def _expand(ptr: np.ndarray, gids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR-expand a per-row gid array over a per-gid slot table.

    Returns ``(rows, slots)``: ``rows[e]`` is the position in ``gids`` the
    ``e``-th expanded entry came from, ``slots[e]`` the flat table slot —
    each row is repeated once per table entry of its gid, in table order.
    """
    counts = ptr[gids + 1] - ptr[gids]
    rows = np.repeat(np.arange(gids.shape[0], dtype=np.int64), counts)
    if rows.size == 0:
        return rows, rows
    slots = ptr[gids][rows] + _ragged_arange(counts)
    return rows, slots


def _csr_from_parts(
    v: np.ndarray,
    c: np.ndarray,
    indptr: np.ndarray,
    shape: tuple[int, int],
) -> sp.csr_matrix:
    """Canonical CSR from verified parts, skipping scipy's constructor.

    The caller guarantees row-major sorted indices with no duplicates, so
    ``check_format``/canonicalization would only re-derive what the
    lexsort already proved.  The arrays are attached directly (index
    dtype downcast once, matching what scipy's own constructor would
    pick) and the canonical-format flags set, which shaves the dominant
    fixed cost off small-dimension level assembly.
    """
    nnz = int(indptr[-1])
    idx_dtype = (
        np.int32
        if max(int(shape[1]), nnz) <= np.iinfo(np.int32).max
        else np.int64
    )
    out = sp.csr_matrix.__new__(sp.csr_matrix)
    out.data = v
    out.indices = c.astype(idx_dtype, copy=False)
    out.indptr = indptr.astype(idx_dtype, copy=False)
    out._shape = (int(shape[0]), int(shape[1]))
    out.has_sorted_indices = True
    out.has_canonical_format = True
    return out


def _coo_to_csr(
    rows: list[np.ndarray],
    cols: list[np.ndarray],
    vals: list[np.ndarray],
    shape: tuple[int, int],
) -> sp.csr_matrix:
    """COO batches → canonical CSR, bypassing scipy's slow COO path.

    When no ``(row, col)`` pair repeats — the common case for the §5.4
    operators — the canonical CSR is built directly from a lexsort, which
    yields bit-identical data to ``csr_matrix((vals, (rows, cols)))`` at a
    fraction of the constructor overhead.  Batches that already arrive in
    row-major order (single-station operators like ``R_k``) skip the sort
    outright, and the final matrix is assembled by
    :func:`_csr_from_parts` without re-validating what the sort proved.
    Duplicates fall back to scipy so the summation semantics stay exactly
    the historical ones.
    """
    if not rows:
        return sp.csr_matrix(shape)
    if len(rows) == 1:
        r, c, v = rows[0], cols[0], vals[0]
    else:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
        v = np.concatenate(vals)
    # Strictly increasing (row, col) pairs mean already sorted *and*
    # duplicate-free — one O(nnz) scan replacing the lexsort entirely.
    presorted = r.size < 2 or bool(
        ((r[1:] > r[:-1]) | ((r[1:] == r[:-1]) & (c[1:] > c[:-1]))).all()
    )
    if not presorted:
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        if bool(((r[1:] == r[:-1]) & (c[1:] == c[:-1])).any()):
            return sp.csr_matrix((v, (r, c)), shape=shape)
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(r, minlength=shape[0]), out=indptr[1:])
    return _csr_from_parts(v, c, indptr, shape)


def build_level(
    automata: Sequence[StationAutomaton],
    routing: np.ndarray,
    exit_vec: np.ndarray,
    entry_vec: np.ndarray,
    space_k: LevelSpace,
    space_km1: LevelSpace,
) -> LevelOperators:
    """Assemble the operators for level ``k = space_k.k`` (vectorized).

    Implements the construction rules of §5.4 — only one customer moves
    per event; a completion at station ``c`` either routes into station
    ``c2`` (probability ``routing[c, c2]``, applying the receiving
    automaton's arrival split) and stays in Ξ_k, or exits the network
    (probability ``exit_vec[c]``) and lands in Ξ_{k−1} — but over whole
    batches of states at once: per-automaton tables supply every local
    transition, and the ranking arrays of :class:`LevelSpace` turn "one
    local move" into global column indices arithmetically.  The per-state
    reference loops it replaces live in ``tests/oracle.py``, which pins
    the two equal (bit-identical for single-event-per-local-state
    stations; up to summation-order rounding otherwise).
    """
    k = space_k.k
    if k < 1:
        raise ValueError(f"levels start at k=1, got {k}")
    dim = space_k.dim
    dim_dn = space_km1.dim
    n_stations = len(automata)
    reg = space_k.registry
    tbs = reg.tables
    G, CNT, REM, CUM = space_k.gids, space_k.counts, space_k.rem, space_k.cumterm

    # M_k diagonal: accumulate per-station local totals in station order so
    # the floating-point sums match the historical event-order accumulation.
    rates = np.zeros(dim)
    for c in range(n_stations):
        rates += tbs[c].total_rate[G[:, c]]
    if not np.all(rates > 0.0):  # pragma: no cover - impossible for k >= 1
        i = int(np.flatnonzero(rates <= 0.0)[0])
        raise RuntimeError(f"state {space_k.states[i]!r} at level {k} has no events")

    P_r: list[np.ndarray] = []
    P_c: list[np.ndarray] = []
    P_v: list[np.ndarray] = []
    Q_r: list[np.ndarray] = []
    Q_c: list[np.ndarray] = []
    Q_v: list[np.ndarray] = []

    for c in range(n_stations):
        tb = tbs[c]
        g = G[:, c]
        # -- internal stage moves: same load, one digit changes ----------
        if tb.int_rate.size:
            rexp, slots = _expand(tb.int_ptr, g)
            if rexp.size:
                w = tb.int_rate[slots] / rates[rexp]
                stride = reg.T[c + 1][REM[rexp, c + 1]]
                P_r.append(rexp)
                P_c.append(rexp + (tb.int_tpos[slots] - tb.pos_of[g[rexp]]) * stride)
                P_v.append(w)
        # -- completions: one customer ready to leave station c ----------
        if not tb.comp_rate.size:
            continue
        rexp, slots = _expand(tb.comp_ptr, g)
        if not rexp.size:
            continue
        wpr = (tb.comp_rate[slots] / rates[rexp]) * tb.comp_pr[slots]
        tpos = tb.comp_tpos[slots]
        r_c = REM[rexp, c]
        n_c = CNT[rexp, c]
        for c2 in range(n_stations):
            pmove = float(routing[c, c2])
            if pmove <= 0.0:
                continue
            tb2 = tbs[c2]
            # Arrival source: the post-departure state when the customer
            # re-enters c, the untouched local state of c2 otherwise.
            g2 = tb2.offset[n_c - 1] + tpos if c2 == c else G[rexp, c2]
            sub, aslots = _expand(tb2.arr_ptr, g2)
            if not sub.size:
                continue
            rexp2 = rexp[sub]
            vals = (wpr[sub] * pmove) * tb2.arr_p[aslots]
            apos = tb2.arr_tpos[aslots]
            if c2 == c:
                stride = reg.T[c + 1][REM[rexp2, c + 1]]
                cols = rexp2 + (apos - tb.pos_of[g[rexp2]]) * stride
            elif c2 > c:
                # Suffix after c2 keeps its rank terms; stations c..c2
                # re-rank with the customer in transit (r' = r + 1).
                cols = CUM[rexp2, c] + (
                    reg.head[c][r_c[sub], n_c[sub] - 1]
                    + tpos[sub] * reg.T[c + 1][r_c[sub] - n_c[sub] + 1]
                )
                for cm in range(c + 1, c2):
                    r_m = REM[rexp2, cm] + 1
                    n_m = CNT[rexp2, cm]
                    cols += (
                        reg.head[cm][r_m, n_m]
                        + tbs[cm].pos_of[G[rexp2, cm]] * reg.T[cm + 1][r_m - n_m]
                    )
                r_2 = REM[rexp2, c2]
                n_2 = CNT[rexp2, c2]
                cols += (
                    reg.head[c2][r_2 + 1, n_2 + 1]
                    + apos * reg.T[c2 + 1][r_2 - n_2]
                )
                cols += rexp2 - CUM[rexp2, c2 + 1]
            else:
                # c2 < c: the arrival upstream shifts loads between c2 and c.
                r_2 = REM[rexp2, c2]
                n_2 = CNT[rexp2, c2]
                cols = CUM[rexp2, c2] + (
                    reg.head[c2][r_2, n_2 + 1]
                    + apos * reg.T[c2 + 1][r_2 - n_2 - 1]
                )
                for cm in range(c2 + 1, c):
                    r_m = REM[rexp2, cm] - 1
                    n_m = CNT[rexp2, cm]
                    cols += (
                        reg.head[cm][r_m, n_m]
                        + tbs[cm].pos_of[G[rexp2, cm]] * reg.T[cm + 1][r_m - n_m]
                    )
                cols += (
                    reg.head[c][r_c[sub] - 1, n_c[sub] - 1]
                    + tpos[sub] * reg.T[c + 1][r_c[sub] - n_c[sub]]
                )
                cols += rexp2 - CUM[rexp2, c + 1]
            P_r.append(rexp2)
            P_c.append(cols)
            P_v.append(vals)
        # -- departures from the network: land in Ξ_{k−1} ----------------
        if float(exit_vec[c]) > 0.0:
            qcols = rexp - CUM[rexp, c + 1] + (
                reg.head[c][r_c - 1, n_c - 1] + tpos * reg.T[c + 1][r_c - n_c]
            )
            for cm in range(c):
                r_m = REM[rexp, cm] - 1
                n_m = CNT[rexp, cm]
                qcols += (
                    reg.head[cm][r_m, n_m]
                    + tbs[cm].pos_of[G[rexp, cm]] * reg.T[cm + 1][r_m - n_m]
                )
            Q_r.append(rexp)
            Q_c.append(qcols)
            Q_v.append(wpr * float(exit_vec[c]))

    P = _coo_to_csr(P_r, P_c, P_v, (dim, dim))
    Q = _coo_to_csr(Q_r, Q_c, Q_v, (dim, dim_dn))
    R = build_entrance(automata, entry_vec, space_km1, space_k)
    return LevelOperators(k=k, space=space_k, rates=rates, P=P, Q=Q, R=R)


def build_entrance(
    automata: Sequence[StationAutomaton],
    entry_vec: np.ndarray,
    space_from: LevelSpace,
    space_to: LevelSpace,
) -> sp.csr_matrix:
    """The entrance operator ``R_k : Ξ_{k−1} → Ξ_k`` (one task joins).

    Vectorized: Ξ_{k−1}'s ranking arrays plus one arrival-table expansion
    produce the Ξ_k column indices directly — the level-``k`` states are
    never enumerated here.
    """
    if space_to.k != space_from.k + 1:
        raise ValueError(
            f"entrance must raise the level by one, got {space_from.k} → {space_to.k}"
        )
    n_stations = len(automata)
    # The destination registry is guaranteed to cover loads up to k.
    reg = space_to.registry
    tbs = reg.tables
    G, CNT, REM, CUM = (
        space_from.gids,
        space_from.counts,
        space_from.rem,
        space_from.cumterm,
    )
    R_r: list[np.ndarray] = []
    R_c: list[np.ndarray] = []
    R_v: list[np.ndarray] = []
    for c in range(n_stations):
        pc = float(entry_vec[c])
        if pc <= 0.0:
            continue
        tb = tbs[c]
        rexp, aslots = _expand(tb.arr_ptr, G[:, c])
        if not rexp.size:
            continue
        apos = tb.arr_tpos[aslots]
        r_c = REM[rexp, c]
        n_c = CNT[rexp, c]
        # Suffix after c is untouched; prefix re-ranks one level up.
        cols = rexp - CUM[rexp, c + 1] + (
            reg.head[c][r_c + 1, n_c + 1] + apos * reg.T[c + 1][r_c - n_c]
        )
        for cm in range(c):
            r_m = REM[rexp, cm] + 1
            n_m = CNT[rexp, cm]
            cols += (
                reg.head[cm][r_m, n_m]
                + tbs[cm].pos_of[G[rexp, cm]] * reg.T[cm + 1][r_m - n_m]
            )
        R_r.append(rexp)
        R_c.append(cols)
        R_v.append(pc * tb.arr_p[aslots])
    return _coo_to_csr(R_r, R_c, R_v, (space_from.dim, space_to.dim))
