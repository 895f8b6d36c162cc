"""The transient finite-workload model (paper §4).

Given a network and ``K`` workstations executing ``N`` tasks with no new
arrivals, :class:`TransientModel` computes the exact mean time of every
departure epoch:

* the system fills through the entrance operators,
  ``p_K = p R_2 R_3 … R_K`` (§4, opening);
* while a backlog remains, each departure is instantly replaced, so epoch
  ``i`` starts from ``p_K (Y_K R_K)^{i−1}`` and lasts ``p (Y_K R_K)^{i-1} τ'_K``
  (§4.2, Case 2);
* the final ``K`` epochs *drain* through the cascade
  ``Y_K, Y_{K−1}, …, Y_1`` (§4.1, Case 1).

Summing the epochs gives the exact mean makespan ``E(T)``; the epoch
sequence itself exhibits the three regions (transient ramp, steady state,
draining) of the paper's Figures 3–4 and 10–11.

The refill recurrence is a power iteration, ``p (Y_K R_K)^i → p_ss``
(§5), so the stepped engine stops at its converged tail.  After each
step it takes the 1-norm step distance ``δ_j = ‖x_{j+1} − x_j‖₁`` and the
observed rate ``ρ̂ = δ_j / δ_{j−1}``; once ``ρ̂ < 1`` and the geometric
bound ``δ_j ρ̂ / (1 − ρ̂) · ‖τ'_K‖∞`` on the error of every remaining
refill epoch time is ≤ :data:`TAIL_RTOL` ``· (x_{j+1} τ'_K)``, every
later refill epoch is charged ``x_{j+1} τ'_K`` and the drain starts from
``x_{j+1}``.  A walk on which the rule never fires steps all ``N − K``
refill epochs.

Every epoch steps through the level's sparse LU.  The refill walk from
``p_K`` does not depend on ``N``, so each model steps it once per active
level and keeps it (:class:`_RefillWalk`): a query for any ``N`` reads
``x_{min(N − K, head)}`` and drains from it with ``K − 1`` solves, its
hooks and spans still see every epoch in order, and a warm query replays
a cold one's floating-point sequence bit for bit.
"""

from __future__ import annotations

import threading
from typing import Callable

import numpy as np

from repro.laqt.automata import automaton_for
from repro.laqt.operators import LevelOperators, build_level
from repro.laqt.states import build_spaces
from repro.network.spec import NetworkSpec
from repro.obs import runtime as _rt
from repro.obs.instrument import Instrumentation
from repro.resilience.errors import SpectralFallbackError

__all__ = ["TAIL_RTOL", "TransientModel"]

#: Relative error allowed on each converged-tail epoch time (see the
#: module docstring); well below the 10⁵-step recurrence's own drift.
TAIL_RTOL = 1e-13
#: Bytes of walk vectors a model keeps per active level.  Heads are
#: 26–45 epochs on the paper's clusters, far inside it; a walk that has
#: not converged by then keeps stepping past it without storing.
WALK_MEMO_BYTES = 4 << 20


class _RefillWalk:
    """The stepped refill walk ``x_{j+1} = x_j Y_K R_K`` of one model level.

    ``xs[j]`` is the vector refill epoch ``j`` starts from (kept up to
    :data:`WALK_MEMO_BYTES`), ``dist[j]``/``bound[j]`` the step distance
    and tail-rule bound of step ``j`` (module docstring), and ``head``
    the number of steps after which the rule fired, ``None`` until then.
    Racing queries step the same sequence; the first to finish a step
    records it.
    """

    __slots__ = ("_ops", "_lock", "_cap", "_tau",
                 "xs", "dist", "bound", "head")

    def __init__(self, ops, x0: np.ndarray):
        self._ops = ops
        self._lock = threading.Lock()
        self._cap = max(1, WALK_MEMO_BYTES // (8 * x0.shape[0]))
        # τ is read at the first rate estimate, after the walk's own
        # first epoch times: a level wrapper may count or check reads.
        self._tau = None
        self.xs, self.dist, self.bound, self.head = [x0], [], [], None

    def advance(self, j: int, x: np.ndarray) -> tuple[np.ndarray, bool]:
        """``(x_{j+1}, converged at j + 1)`` for ``x = x_j``: a read when
        the walk holds ``x_{j+1}``, else one refill step."""
        xs = self.xs
        if j + 1 < len(xs):
            return xs[j + 1], j + 1 == self.head
        x_next = self._ops.apply_YR(x)
        d = float(np.abs(x_next - x).sum())
        prev, bound = ((self.dist[j - 1], self.bound[j - 1]) if j
                       else (0.0, np.inf))
        done = d == 0.0
        if done:
            bound = 0.0
        elif d < prev:  # not the first step, nor a growing or non-finite one
            if self._tau is None:
                tau = np.asarray(self._ops.tau, dtype=float)
                self._tau = (tau, float(np.max(np.abs(tau))))
            tau, tau_inf = self._tau
            rho = d / prev
            bound = d * rho / (1.0 - rho) * tau_inf
            # x·τ ≤ ‖τ‖∞ for a distribution: skip the dot until it can matter.
            done = (bound <= TAIL_RTOL * tau_inf
                    and bound <= TAIL_RTOL * float(x_next @ tau))
        with self._lock:
            if len(self.dist) == j:
                self.dist.append(d)
                self.bound.append(bound)
                self.head = j + 1 if done else None
            if len(xs) == j + 1 and j < self._cap:
                xs.append(x_next)
        return x_next, done

    def nbytes(self) -> int:
        """Vectors, plus two float list entries per step taken."""
        return sum(int(x.nbytes) for x in self.xs) + 64 * len(self.dist)


class TransientModel:
    """Exact transient solver for a finite workload on ``K`` workstations.

    Parameters
    ----------
    spec:
        The queueing network (typically built by :mod:`repro.clusters`).
    K:
        Maximum number of simultaneously active tasks (the population
        constraint Jackson networks cannot express).
    instrument:
        Optional :class:`~repro.obs.Instrumentation` (or a bare
        :data:`~repro.obs.EpochCallback`): per-epoch callback invoked
        before each epoch of :meth:`interdeparture_times` — the
        resilience layer uses it for wall-clock budget checks — plus
        optional tracer/metrics.  Missing parts fall through to the
        ambient instrumentation (:mod:`repro.obs.runtime`); ``None``
        (the default) costs nothing and leaves results bit-identical.
    propagation:
        Epoch engine: ``"propagator"`` (the default; the name is
        historical — it builds no propagator) steps every epoch through
        the level's sparse LU and stops the refill walk at its converged
        tail (module docstring): each tail epoch time is within
        :data:`TAIL_RTOL` relative of the fully stepped one, and a walk
        whose rule never fires steps every epoch; ``"spectral"`` builds
        the dense ``Y_K R_K`` once per model, eigendecomposes it (paper
        §5: the refill recurrence is a power iteration) and evaluates any
        epoch — and the refill portion of the makespan, as a geometric
        series over the non-unit spectrum — in closed form, making the
        refill cost independent of ``N``.  An ill-conditioned or
        unavailable decomposition (probe residual, LAPACK failure, a
        level over :data:`~repro.laqt.operators.SPECTRAL_DIM_CAP`)
        downgrades stickily to ``"propagator"`` with a reason-coded
        :class:`~repro.resilience.errors.SpectralFallbackError` recorded
        on :attr:`spectral_fallback` — never a wrong answer.  Both
        engines agree with the per-epoch solve recurrence of
        ``tests/oracle.py`` to ≤1e-10 in the returned times.

    Notes
    -----
    Construction cost is dominated by assembling the ``K`` sparse operator
    levels; each is cached with its LU, and the refill walk is stepped
    once per model up to its converged head (tens of epochs on the
    paper's clusters) and kept.  A query afterwards reads the walk and
    steps only its drain epochs, one LU solve each, regardless of ``N``.
    A model holds
    only plain :class:`~repro.laqt.operators.LevelOperators`: health
    guards and resource budgets belong to the degradation ladder
    (:func:`~repro.resilience.fallback.solve_resilient`), and
    :func:`~repro.resilience.budget.enforce_budget` prices a spec before
    any model is built.
    """

    # Alternative backends construct without this __init__; class-level
    # defaults keep the instrumentation surface well-defined for them.
    _instrument: Instrumentation | None = None
    _propagation: str = "propagator"
    #: refill walks by active level (see :class:`_RefillWalk`), made on
    #: first use
    _walks: dict | None = None

    _PROPAGATION_MODES = ("propagator", "spectral")

    # Sticky spectral downgrade (set once, first time the engine declines).
    _spectral_fallback: SpectralFallbackError | None = None

    def __init__(
        self,
        spec: NetworkSpec,
        K: int,
        *,
        instrument: Instrumentation | Callable[[int, int, np.ndarray], None] | None = None,
        propagation: str = "propagator",
    ):
        if K < 1 or int(K) != K:
            raise ValueError(f"K must be a positive integer, got {K!r}")
        if propagation not in self._PROPAGATION_MODES:
            raise ValueError(
                f"propagation must be one of {sorted(self._PROPAGATION_MODES)}, "
                f"got {propagation!r}"
            )
        self._spec = spec
        self._K = int(K)
        self._propagation = propagation
        self.instrument = instrument
        self._automata = tuple(automaton_for(st) for st in spec.stations)
        self._spaces = build_spaces(self._automata, self._K)
        self._levels: dict[int, LevelOperators] = {}
        self._entrance: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    @property
    def spec(self) -> NetworkSpec:
        """The network being solved."""
        return self._spec

    @property
    def K(self) -> int:
        """Population bound (number of workstations)."""
        return self._K

    @property
    def propagation(self) -> str:
        """Requested epoch engine (one of :data:`_PROPAGATION_MODES`)."""
        return self._propagation

    @property
    def effective_propagation(self) -> str:
        """Backend actually in use: ``"spectral"`` downgrades to
        ``"propagator"`` once :attr:`spectral_fallback` is set."""
        if self._propagation == "spectral" and self._spectral_fallback is not None:
            return "propagator"
        return self._propagation

    @property
    def spectral_fallback(self) -> SpectralFallbackError | None:
        """The reason-coded error that downgraded ``"spectral"`` to the
        LU-stepped walk, or ``None`` (engine healthy or never requested)."""
        return self._spectral_fallback

    # -- instrumentation surface ---------------------------------------
    @property
    def instrument(self) -> Instrumentation | None:
        """This model's explicit instrumentation bundle (``None`` = off)."""
        return self._instrument

    @instrument.setter
    def instrument(
        self,
        value: Instrumentation | Callable[[int, int, np.ndarray], None] | None,
    ) -> None:
        if value is not None and not isinstance(value, Instrumentation):
            value = Instrumentation(on_epoch=value)
        self._instrument = value

    def _effective_instrument(self) -> Instrumentation | None:
        """Explicit bundle merged over the ambient one (either may be None)."""
        local = self._instrument
        if local is None:
            return _rt.ACTIVE
        return local.merged_over(_rt.ACTIVE)

    # ------------------------------------------------------------------
    def level(self, k: int) -> LevelOperators:
        """Operators for population level ``k`` (built lazily, cached)."""
        if not 1 <= k <= self._K:
            raise ValueError(f"level must be in 1..{self._K}, got {k!r}")
        if k not in self._levels:
            ins = self._effective_instrument()
            if ins is None:
                self._levels[k] = self._build_level(k)
            else:
                dim = self._spaces[k].dim
                with ins.span("build_level", k=k, dim=dim) as sp:
                    ops = self._build_level(k)
                self._levels[k] = ops
                ins.count("repro_levels_built_total")
                ins.gauge("repro_level_dim", dim, k=k)
                nnz = int(ops.P.nnz + ops.Q.nnz + ops.R.nnz)
                ins.gauge("repro_level_nnz", nnz, k=k)
                if sp is not None:
                    sp.attrs["nnz"] = nnz
        return self._levels[k]

    def _build_level(self, k: int) -> LevelOperators:
        """Operator assembly hook (overridden by alternative backends)."""
        return build_level(
            self._automata,
            self._spec.routing,
            self._spec.exit,
            self._spec.entry,
            self._spaces[k],
            self._spaces[k - 1],
        )

    def level_dim(self, k: int) -> int:
        """State-space size ``D(k)``."""
        if not 0 <= k <= self._K:
            raise ValueError(f"level must be in 0..{self._K}, got {k!r}")
        return self._spaces[k].dim

    def entrance_vector(self, k: int | None = None) -> np.ndarray:
        """Initial state ``p_k = p R_1 R_2 … R_k`` after ``k`` tasks flow in."""
        if k is None:
            k = self._K
        if not 1 <= k <= self._K:
            raise ValueError(f"k must be in 1..{self._K}, got {k!r}")
        if k not in self._entrance:
            ins = self._effective_instrument()
            if ins is None:
                self._compute_entrance(k)
            else:
                with ins.span("entrance_vector", k=k):
                    self._compute_entrance(k)
        return self._entrance[k].copy()

    def _compute_entrance(self, k: int) -> None:
        x = np.ones(1)
        top = 0
        # Reuse the longest already-computed prefix.
        for kk in sorted(self._entrance):
            if kk <= k:
                top = kk
        if top:
            x = self._entrance[top]
        for kk in range(top + 1, k + 1):
            x = x @ self.level(kk).R
            self._entrance[kk] = x

    def _refill_walk(self, k: int) -> _RefillWalk:
        if self._walks is None:
            self._walks = {}
        walk = self._walks.get(k)
        if walk is None:
            walk = self._walks.setdefault(
                k, _RefillWalk(self.level(k), self.entrance_vector(k)))
        return walk

    # ------------------------------------------------------------------
    def interdeparture_times(self, N: int) -> np.ndarray:
        """Mean inter-departure time of every epoch, in departure order.

        ``N`` is the workload size.  The first ``max(N − K, 0)`` epochs run
        at full population with instant refill; the last ``min(K, N)``
        epochs drain the system.  If ``N < K`` the model runs with only
        ``N`` active tasks — the paper's "use a smaller cluster" case.
        Refill epochs past the converged head all hold the tail time
        ``x τ'_K`` (module docstring).
        """
        n = self._validate_N(N)
        times = np.empty(n)

        def visit(j: int, k: int, ops, x: np.ndarray) -> None:
            times[j] = ops.mean_epoch_time(x)

        def fill(j0: int, j1: int, ops, x: np.ndarray) -> None:
            times[j0:j1] = ops.mean_epoch_time(x)

        eng = self._bulk_engine(n)
        if eng is not None:
            head, x, k_active, m, ins = self._spectral_refill(
                n, eng, lambda top, x0, m: eng.epoch_times(x0, top.tau, m))
            times[:m] = head
            self._drain_phase(m, k_active, x, visit, hook=None, ins=ins)
            return times

        self._epoch_recurrence(n, visit, fill, observe=True)
        return times

    @staticmethod
    def _validate_N(N: int) -> int:
        # bool is an int subclass: makespan(True) would silently solve
        # N=1, which is always a caller bug, not a workload size.
        if isinstance(N, (bool, np.bool_)):
            raise ValueError(f"N must be a positive integer, got {N!r}")
        try:
            n = int(N)
        except (TypeError, ValueError):
            raise ValueError(f"N must be a positive integer, got {N!r}") from None
        if n != N or n < 1:
            raise ValueError(f"N must be a positive integer, got {N!r}")
        return n

    @staticmethod
    def _frozen_view(x: np.ndarray) -> np.ndarray:
        """Read-only view of the live recurrence vector for user hooks.

        A mutating ``on_epoch`` callback would otherwise silently corrupt
        every later epoch.
        """
        v = x.view()
        v.flags.writeable = False
        return v

    def _epoch_recurrence(
        self,
        N: int,
        visit: Callable[[int, int, object, np.ndarray], None],
        fill: Callable[[int, int, object, np.ndarray], None],
        *,
        observe: bool,
    ) -> None:
        """Single driver for the epoch recurrence of §4.1/§4.2.

        Calls ``visit(j, k, ops, x)`` once per stepped epoch, in departure
        order, with the state vector the epoch *starts* from, then
        advances ``x`` through the level's refill/drain operator.  When
        the stepped refill reaches its converged tail (module docstring)
        after ``head`` epochs, ``fill(head, N − K, ops, x)`` answers the
        remaining refill epochs at once from the converged ``x``, and the
        drain starts from it.  Both :meth:`interdeparture_times`
        (``observe=True``: hooks, spans, metrics) and
        :meth:`epoch_vectors` (``observe=False``: silent) run through
        here, reading the model's refill walk, so the two cannot drift.
        """
        k_active = min(self._K, N)
        m = N - k_active
        top = self.level(k_active)
        ins = self._effective_instrument() if observe else None
        hook = ins.on_epoch if ins is not None else None
        if ins is not None and ins.tracer is None and ins.metrics is None:
            # Callback-only bundle: folded into the hook path above,
            # keeping the loop free of dead span/metric branches.
            ins = None
        eng = self._spectral_engine(top) if m else None
        if eng is None:
            walk = self._refill_walk(k_active)
            x = walk.xs[0]
            advance = walk.advance
        else:
            x = x0 = self.entrance_vector(k_active)

            def advance(j: int, x: np.ndarray) -> tuple[np.ndarray, bool]:
                return eng.propagate(x0, j + 1), False

        head = m
        for j in range(m):
            if hook is not None:
                hook(j, k_active, self._frozen_view(x))
            if ins is None:
                visit(j, k_active, top, x)
                x, done = advance(j, x)
            else:
                stepped = eng is None and j + 1 >= len(walk.xs)
                with ins.span("epoch", epoch=j, level=k_active,
                              phase="refill") as sp:
                    visit(j, k_active, top, x)
                    x, done = advance(j, x)
                self._epoch_metrics(ins, sp)
                if stepped:
                    ins.count("repro_sparse_solves_total", kind="apply_YR")
            if done:
                head = j + 1
                break
        if ins is not None and m:
            # The refill recurrence is the paper's power iteration
            # p(Y_K R_K)^i → p_ss (§5).  Under the spectral engine the
            # gauge is the *exact* geometric rate of that iteration (the
            # spectral gap); otherwise it is the last 1-norm step
            # distance of the stepped walk, with the tail rule's bound.
            if eng is not None:
                ins.gauge("repro_epoch_convergence_distance", eng.gap)
            else:
                ins.gauge("repro_epoch_convergence_distance",
                          walk.dist[head - 1])
                if np.isfinite(walk.bound[head - 1]):
                    ins.gauge("repro_epoch_convergence_distance",
                              walk.bound[head - 1], quantity="bound")
        if head < m:
            self._refill_tail(head, m, top, x, fill, hook=hook, ins=ins)
        self._drain_phase(m, k_active, x, visit, hook=hook, ins=ins)

    def _refill_tail(self, head: int, m: int, top, x: np.ndarray, fill,
                     *, hook, ins: Instrumentation | None) -> None:
        """Refill epochs ``head … m − 1`` at the converged vector ``x``.

        ``on_epoch`` still sees every epoch (the ladder's budget clock
        counts on it); tracing sees one ``phase="tail"`` span.
        """
        if hook is not None:
            view = self._frozen_view(x)
            for j in range(head, m):
                hook(j, top.k, view)
        if ins is None:
            fill(head, m, top, x)
            return
        with ins.span("epoch", level=top.k, phase="tail",
                      epochs=m - head, head=head):
            fill(head, m, top, x)
        ins.count("repro_epochs_solved_total", m - head)

    def _drain_phase(
        self,
        at: int,
        k_active: int,
        x: np.ndarray,
        visit: Callable[[int, int, object, np.ndarray], None],
        *,
        hook,
        ins: Instrumentation | None,
    ) -> None:
        """Drain cascade ``Y_K, Y_{K−1}, …, Y_1`` (§4.1 Case 1).

        The drain operators are rectangular (``D(k) × D(k−1)``) so they
        have no spectral form; every engine drains through each level's
        ``apply_Y``.  Shared by the stepped recurrence and the spectral
        bulk paths so the two cannot drift.
        """
        for k in range(k_active, 0, -1):
            if hook is not None:
                hook(at, k, self._frozen_view(x))
            ops = self.level(k)
            if ins is None:
                visit(at, k, ops, x)
                if k > 1:
                    x = ops.apply_Y(x)
            else:
                with ins.span("epoch", epoch=at, level=k, phase="drain") as sp:
                    visit(at, k, ops, x)
                    if k > 1:
                        x = ops.apply_Y(x)
                self._epoch_metrics(ins, sp)
                if k > 1:
                    ins.count("repro_sparse_solves_total", kind="apply_Y")
            at += 1

    # -- spectral engine ------------------------------------------------
    def _spectral_engine(self, top):
        """Top-level :class:`SpectralDecomposition`, or ``None``.

        ``None`` when the mode isn't ``"spectral"`` or the engine has
        already declined for this model (the downgrade is sticky — one
        reason code per model, no per-call retry storms).
        """
        if self._propagation != "spectral" or self._spectral_fallback is not None:
            return None
        try:
            return top.spectral_YR()
        except SpectralFallbackError as exc:
            self._note_spectral_fallback(exc)
            return None

    def _note_spectral_fallback(self, exc: SpectralFallbackError) -> None:
        self._spectral_fallback = exc
        ins = self._effective_instrument()
        if ins is not None:
            ins.count("repro_spectral_fallbacks_total", reason=exc.reason)
            ins.event("spectral_fallback", reason=exc.reason, message=str(exc))

    def _bulk_engine(self, n: int):
        """Spectral engine for the closed-form bulk refill, or ``None``.

        The bulk path collapses the whole refill phase into one
        vectorized evaluation, so it only engages when nothing observes
        individual refill epochs: no ``on_epoch`` callback (the
        resilience budget clock arms one — such solves take the stepped
        spectral path, which checks budgets every epoch and returns
        identical vectors).
        """
        if self._propagation != "spectral":
            return None
        k_active = min(self._K, n)
        if n <= k_active:
            return None
        ins = self._effective_instrument()
        if ins is not None and ins.on_epoch is not None:
            return None
        return self._spectral_engine(self.level(k_active))

    def _spectral_refill(self, n: int, eng, evaluate):
        """Run the closed-form refill under one ``epoch`` span.

        ``evaluate(top, x0, m)`` computes the caller's refill quantity
        (per-epoch times or their geometric-series sum) from the
        entrance vector; returns ``(value, x_end, k_active, m, ins)``
        with ``x_end = x0 (Y_K R_K)^m`` ready for the drain cascade and
        ``ins`` filtered exactly as the stepped recurrence does.
        """
        k_active = min(self._K, n)
        m = n - k_active
        top = self.level(k_active)
        x0 = self.entrance_vector(k_active)
        ins = self._effective_instrument()
        if ins is not None and ins.tracer is None and ins.metrics is None:
            ins = None
        if ins is None:
            return evaluate(top, x0, m), eng.propagate(x0, m), k_active, m, None
        with ins.span("epoch", level=k_active, phase="refill",
                      mode="spectral", epochs=m) as sp:
            value = evaluate(top, x0, m)
            x = eng.propagate(x0, m)
        ins.count("repro_epochs_solved_total", m)
        if sp is not None and sp.wall is not None:
            ins.observe("repro_epoch_seconds", sp.wall)
        ins.gauge("repro_epoch_convergence_distance", eng.gap)
        return value, x, k_active, m, ins

    @staticmethod
    def _epoch_metrics(ins: Instrumentation, sp) -> None:
        ins.count("repro_epochs_solved_total")
        if sp is not None and sp.wall is not None:
            ins.observe("repro_epoch_seconds", sp.wall)

    def departure_times(self, N: int) -> np.ndarray:
        """Mean cumulative completion time of each departure (cumsum of epochs)."""
        return np.cumsum(self.interdeparture_times(N))

    def makespan(self, N: int) -> float:
        """Exact mean time to finish all ``N`` tasks, ``E(T)`` of §4.

        Under ``propagation="spectral"`` the refill portion is summed as
        a geometric series over the non-unit spectrum of ``Y_K R_K`` —
        O(D) after the one-off decomposition, independent of ``N`` — and
        only the final ``min(K, N)`` drain epochs are stepped.
        """
        n = self._validate_N(N)
        eng = self._bulk_engine(n)
        if eng is None:
            return float(self.interdeparture_times(n).sum())
        total, x, k_active, m, ins = self._spectral_refill(
            n, eng, lambda top, x0, m: eng.refill_time_sum(x0, top.tau, m))

        drain = np.empty(k_active)

        def visit(j: int, k: int, ops, xx: np.ndarray) -> None:
            drain[j - m] = ops.mean_epoch_time(xx)

        self._drain_phase(m, k_active, x, visit, hook=None, ins=ins)
        return float(total + drain.sum())

    def epoch_vectors(self, N: int) -> list[np.ndarray]:
        """State mix at the start of every epoch (diagnostics/tests).

        Element ``j`` lives on the level the ``j``-th epoch runs at.
        Runs the same shared recurrence as :meth:`interdeparture_times`
        (without hooks or spans), so the vectors returned here are
        exactly the ones epoch hooks observe.
        """
        out: list[np.ndarray] = []
        self._epoch_recurrence(
            self._validate_N(N),
            lambda j, k, ops, x: out.append(x.copy()),
            lambda j0, j1, ops, x: out.extend(x.copy() for _ in range(j0, j1)),
            observe=False,
        )
        return out

    def epoch_vector(self, N: int, index: int) -> np.ndarray:
        """State mix at the start of epoch ``index`` (0-based) alone.

        Equal to ``epoch_vectors(N)[index]`` without materializing the
        other ``N − 1`` vectors: the spectral engine jumps straight to
        ``p (Y_K R_K)^index`` (O(1) in ``N``), the stepped path reads the
        model's refill walk at the requested epoch or at its converged
        head, whichever comes first — any refill epoch past the head
        returns the converged vector — and a drain epoch only steps the
        partial ``Y_k`` cascade past the refill end.
        """
        n = self._validate_N(N)
        index = int(index)
        if not 0 <= index < n:
            raise ValueError(f"epoch index must be in 0..{n - 1}, got {index!r}")
        k_active = min(self._K, n)
        refill = n - k_active
        steps = min(index, refill)
        eng = self._spectral_engine(self.level(k_active)) if refill else None
        if eng is not None:
            x = eng.propagate(self.entrance_vector(k_active), steps)
        else:
            walk = self._refill_walk(k_active)
            x = walk.xs[0]
            for j in range(steps):
                x, done = walk.advance(j, x)
                if done:
                    break
            x = x.copy()
        # Partial drain cascade: epoch refill + d starts after Y_{K} … Y_{K−d+1}.
        for k in range(k_active, k_active - (index - steps), -1):
            x = self.level(k).apply_Y(x)
        return x

    # -- cache-extraction surface (repro.serve) ------------------------
    def cached_bytes(self) -> int:
        """Resident bytes of everything this model holds warm.

        Sums :meth:`~repro.laqt.operators.LevelOperators.cached_bytes`
        over the built levels (operators, LU factors, step products,
        spectral decompositions) plus the cached entrance vectors and the
        refill walks' vectors — the number the content-addressed model
        cache charges this model against its byte budget.  Grows as lazy
        surfaces materialize.
        """
        total = sum(int(ops.cached_bytes()) for ops in self._levels.values())
        for x in self._entrance.values():
            total += int(x.nbytes)
        for walk in (self._walks or {}).values():
            total += walk.nbytes()
        return total

    def cache_info(self) -> dict:
        """Warm-state summary: level rows, entrance and walk bookkeeping."""
        walks = self._walks or {}
        return {
            "K": self._K,
            "propagation": self.effective_propagation,
            "levels_built": len(self._levels),
            "entrance_cached": len(self._entrance),
            "bytes": self.cached_bytes(),
            "levels": [self._levels[k].cache_info() for k in sorted(self._levels)],
            "walks": [
                {"level": k, "steps": len(walks[k].dist),
                 "head": walks[k].head, "bytes": walks[k].nbytes()}
                for k in sorted(walks)
            ],
        }

    def level_B(self, k: int) -> np.ndarray:
        """Dense epoch-phase generator ``B_k = M_k (I − P_k)``."""
        import scipy.sparse as sparse

        ops = self.level(k)
        return np.asarray(
            (sparse.diags(np.asarray(ops.rates, dtype=float))
             @ (sparse.identity(ops.dim, format="csr") - ops.P)).toarray()
        )
