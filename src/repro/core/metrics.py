"""Performance metrics built on the transient model (paper §6).

* **Speedup** (§6.1.4, §6.2.3): ratio of the time one workstation would
  need (``N`` tasks in sequence, no contention) to the cluster's mean
  makespan.  Contention, the operating region and the service distribution
  all reduce it below the ideal ``K``.
* **Prediction error** (§6.1.3, §6.2.2): the relative error incurred by
  modeling a non-exponential application with the exponential distribution
  of the same mean,

  .. math::

     E\\% = \\frac{E(T_{act}) - E(T_{exp})}{E(T_{act})} \\times 100 .
"""

from __future__ import annotations

import numpy as np

from repro.core.transient import TransientModel
from repro.distributions.builders import exponential
from repro.network.spec import NetworkSpec, Station

__all__ = [
    "speedup",
    "prediction_error",
    "exponential_twin",
    "utilizations",
    "transient_utilizations",
]


def speedup(spec: NetworkSpec, N: int, makespan: float) -> float:
    """Speedup over a single contention-free workstation.

    ``SP = N · E(T_task) / E(T_cluster)`` where ``E(T_task)`` is the mean
    contention-free task time (``Ψ[V]``, the sum of the paper's time
    components) — the makespan a one-workstation system would need — and
    ``makespan`` is the cluster's ``E(T)`` for the same ``N``, as the
    caller already solved it (``model.makespan(N)``).
    """
    baseline = N * spec.task_time()
    return baseline / makespan


def prediction_error(actual_makespan: float, exponential_makespan: float) -> float:
    """The paper's ``E%``: error of the exponential approximation, in percent."""
    return (actual_makespan - exponential_makespan) / actual_makespan * 100.0


def exponential_twin(spec: NetworkSpec) -> NetworkSpec:
    """The same network with every service distribution replaced by an
    exponential of identical mean — the "assume exponential" model whose
    error the paper quantifies."""
    stations = tuple(
        Station(st.name, exponential(1.0 / st.dist.mean), st.servers)
        for st in spec.stations
    )
    return NetworkSpec(stations=stations, routing=spec.routing, entry=spec.entry)


def transient_utilizations(model: TransientModel, N: int) -> np.ndarray:
    """Expected busy servers per station at the start of every epoch.

    Shape ``(N, n_stations)``: row ``j`` is the per-station busy-server
    expectation under epoch ``j``'s state mix — the warm-up and drain-down
    of each resource across the run, complementing the steady-state
    :func:`utilizations`.  (Epoch-start mixes are embedded snapshots, so
    the warm-up rows are approximations to time averages; the long middle
    rows converge to the embedded steady state.)
    """
    vecs = model.epoch_vectors(N)
    k_active = min(model.K, int(N))
    levels = [k_active] * (N - k_active) + list(range(k_active, 0, -1))
    caps = np.array(
        [np.inf if st.is_delay else float(st.servers) for st in model.spec.stations]
    )
    out = np.empty((int(N), model.spec.n_stations))
    for j, (x, k) in enumerate(zip(vecs, levels)):
        occ = model.level(k).space.occupancies()
        out[j] = np.asarray(x, dtype=float) @ np.minimum(occ, caps[None, :])
    return out


def utilizations(model: TransientModel, p_state: np.ndarray | None = None, k: int | None = None) -> np.ndarray:
    """Per-station expected busy-server count under a state mix at level ``k``.

    For a shared station this is its utilization (≤ c); for a delay bank it
    is the mean number of simultaneously served tasks.  With no ``p_state``
    the *time-stationary* distribution of the backlogged system is used —
    the correct weighting for steady-state time averages (the
    departure-embedded ``p_ss`` would over-weight short-lived states).
    """
    if k is None:
        k = model.K
    if p_state is None:
        from repro.core.steady_state import time_stationary_distribution

        if k != model.K:
            raise ValueError(
                "the default time-stationary distribution lives at level K; "
                "pass p_state explicitly for other levels"
            )
        p_state = time_stationary_distribution(model)
    space = model.level(k).space
    occ = space.occupancies()
    caps = np.array(
        [np.inf if st.is_delay else float(st.servers) for st in model.spec.stations]
    )
    busy = np.minimum(occ, caps[None, :])
    return np.asarray(p_state, dtype=float) @ busy
