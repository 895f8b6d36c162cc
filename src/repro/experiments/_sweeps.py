"""Shared sweep machinery behind the per-figure experiment modules.

Each helper returns an :class:`~repro.experiments.result.ExperimentResult`
whose series mirror the curves of the corresponding paper figure.  Figure
modules only bind parameters; all computation lives here (and is therefore
what the benchmark harness times).

Every helper decomposes its figure into independent *sweep points* (one
per swept C²/K value) and runs them through one executor: one
:class:`~repro.core.transient.TransientModel` per point, shared across
every workload size N and every curve differing only in N.  Point
results are plain arrays and floats, so the point store records them
bit-exactly for every runtime.

``executor=`` is the one way to choose the runtime: a configured
:class:`~repro.experiments.executor.SweepExecutor` (``jobs=`` local
shard workers with identical numbers, a ``RetryPolicy`` with its
per-attempt ``timeout=``, a checkpoint ``journal=``/``resume=``, drill
``faults=``) or a :class:`~repro.experiments.shard.ShardExecutor`.  This
is how both CLIs thread ``--jobs/--timeout/--retries/--resume/
--checkpoint-dir/--shard-dir`` down to the sweep; ``None`` (the default)
runs serially.  Sweeps are labelled with the experiment name, which keys
the point store.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.clusters.application import ApplicationModel
from repro.clusters.central import central_cluster
from repro.clusters.distributed import distributed_cluster
from repro.core.metrics import exponential_twin, prediction_error, speedup
from repro.core.steady_state import solve_steady_state
from repro.core.transient import TransientModel
from repro.distributions.shapes import Shape
from repro.experiments.executor import SweepExecutor
from repro.experiments.result import ExperimentResult

__all__ = [
    "build_cluster",
    "shape_for_scv",
    "interdeparture_experiment",
    "steady_state_scv_experiment",
    "prediction_error_experiment",
    "speedup_scv_experiment",
    "speedup_vs_k_experiment",
]

#: station carrying the swept distribution, per cluster kind and server role
_SWEEP_STATION = {
    ("central", "shared"): "rdisk",
    ("central", "dedicated"): "cpu",
    ("distributed", "shared"): "disk",
    ("distributed", "dedicated"): "cpu",
}


def build_cluster(
    kind: str,
    app: ApplicationModel,
    K: int,
    shapes: dict[str, Shape] | None = None,
):
    """Build a central or distributed cluster spec by name."""
    if kind == "central":
        return central_cluster(app, shapes)
    if kind == "distributed":
        return distributed_cluster(app, K, shapes=shapes)
    raise ValueError(f"unknown cluster kind {kind!r}; use 'central' or 'distributed'")


def shape_for_scv(scv: float) -> Shape:
    """The paper's distribution choice for a C² value.

    Erlangian mixtures below 1 (exact C²), exponential at 1,
    balanced-means H2 above 1.
    """
    return Shape.scv(scv)


def _series_label(scv: float) -> str:
    if np.isclose(scv, 1.0):
        return "exp"
    if scv < 1.0:
        m = round(1.0 / scv)
        return f"E{m}" if np.isclose(scv, 1.0 / m) else f"Erlang(C2={scv:g})"
    return f"H2(C2={scv:g})"


def _swept_model(kind: str, role: str, K: int, scv: float,
                 app: ApplicationModel) -> TransientModel:
    """The one model a sweep point owns (levels and walk built once)."""
    station = _SWEEP_STATION[(kind, role)]
    spec = build_cluster(kind, app, K, {station: shape_for_scv(scv)})
    return TransientModel(spec, K)


# -- module-level point functions ------------------------------------
def _point_interdeparture(
    kind: str, role: str, K: int, N: int, scv: float, app: ApplicationModel,
) -> np.ndarray:
    return _swept_model(kind, role, K, scv, app).interdeparture_times(N)


def _point_steady_scv(
    K: int, scv: float, heavy_app: ApplicationModel, light_app: ApplicationModel,
) -> tuple[float, float]:
    shapes = {"rdisk": shape_for_scv(scv)}
    heavy = TransientModel(central_cluster(heavy_app, shapes), K)
    light = TransientModel(central_cluster(light_app, shapes), K)
    return (
        solve_steady_state(heavy).interdeparture_time,
        solve_steady_state(light).interdeparture_time,
    )


def _point_prediction_error(
    kind: str, role: str, K: int, Ns: tuple, scv: float, app: ApplicationModel,
) -> np.ndarray:
    station = _SWEEP_STATION[(kind, role)]
    spec = build_cluster(kind, app, K, {station: shape_for_scv(scv)})
    actual = TransientModel(spec, K)
    expo = TransientModel(exponential_twin(spec), K)
    return np.array(
        [prediction_error(actual.makespan(N), expo.makespan(N)) for N in Ns]
    )


def _point_speedup_scv(
    kind: str, role: str, K: int, Ns: tuple, scv: float, app: ApplicationModel,
) -> np.ndarray:
    model = _swept_model(kind, role, K, scv, app)
    return np.array([speedup(model.spec, N, model.makespan(N)) for N in Ns])


def _point_speedup_k(
    K: int, curve_items: tuple, app: ApplicationModel,
) -> np.ndarray:
    # One model per distinct CPU shape, shared by every curve (different N)
    # that uses it.
    models: dict[str, TransientModel] = {}
    vals = np.empty(len(curve_items))
    for i, (shape, N) in enumerate(curve_items):
        key = shape.name + repr(sorted(shape.params.items()))
        if key not in models:
            spec = central_cluster(app, {"cpu": shape})
            models[key] = TransientModel(spec, int(K))
        model = models[key]
        vals[i] = speedup(model.spec, N, model.makespan(N))
    return vals


# ----------------------------------------------------------------------
def interdeparture_experiment(
    *,
    experiment: str,
    kind: str,
    role: str,
    K: int,
    N: int,
    scvs: Sequence[float],
    app: ApplicationModel,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Inter-departure time vs task order for several C² (Figs. 3, 4, 10, 11)."""
    station = _SWEEP_STATION[(kind, role)]
    rows = (executor or SweepExecutor()).map(
        _point_interdeparture,
        [(kind, role, K, N, scv, app) for scv in scvs],
        label=experiment,
    )
    series = {_series_label(scv): row for scv, row in zip(scvs, rows)}
    return ExperimentResult(
        experiment=experiment,
        description=(
            f"inter-departure time per epoch; {N}-task application on a "
            f"{K}-workstation {kind} cluster, {role} server non-exponential"
        ),
        x_label="task order",
        x=np.arange(1, N + 1, dtype=float),
        series=series,
        meta={"K": K, "N": N, "kind": kind, "role": role, "station": station},
    )


def steady_state_scv_experiment(
    *,
    experiment: str,
    K: int,
    scvs: Sequence[float],
    heavy_app: ApplicationModel,
    light_app: ApplicationModel,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Steady-state inter-departure time vs C² under heavy/light shared load (Fig. 5)."""
    scvs = np.asarray(scvs, dtype=float)
    pairs = (executor or SweepExecutor()).map(
        _point_steady_scv,
        [(K, float(scv), heavy_app, light_app)
         for scv in scvs],
        label=experiment,
    )
    contention = np.array([p[0] for p in pairs])
    no_contention = np.array([p[1] for p in pairs])
    return ExperimentResult(
        experiment=experiment,
        description=(
            f"steady-state inter-departure time vs C² of the shared remote "
            f"disk, K={K} central cluster (heavy vs light shared load)"
        ),
        x_label="C2",
        x=scvs,
        series={"contention": contention, "no_contention": no_contention},
        meta={"K": K},
    )


def prediction_error_experiment(
    *,
    experiment: str,
    kind: str,
    role: str,
    K: int,
    Ns: Sequence[int],
    scvs: Sequence[float],
    app: ApplicationModel,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Error of the exponential approximation vs C² (Figs. 6, 7, 12, 13).

    ``E% = (E(T_act) − E(T_exp)) / E(T_act) × 100`` where the exponential
    model replaces the swept station's distribution by an exponential of
    the same mean.
    """
    scvs = np.asarray(scvs, dtype=float)
    Ns = tuple(int(N) for N in Ns)
    cols = (executor or SweepExecutor()).map(
        _point_prediction_error,
        [(kind, role, K, Ns, float(scv), app)
         for scv in scvs],
        label=experiment,
    )
    series = {
        f"N={N}": np.array([col[j] for col in cols]) for j, N in enumerate(Ns)
    }
    return ExperimentResult(
        experiment=experiment,
        description=(
            f"prediction error (%) of the exponential assumption vs C², "
            f"{K}-workstation {kind} cluster, {role} server non-exponential"
        ),
        x_label="C2",
        x=scvs,
        series=series,
        meta={"K": K, "Ns": list(Ns), "kind": kind, "role": role},
    )


def speedup_scv_experiment(
    *,
    experiment: str,
    kind: str,
    role: str,
    K: int,
    Ns: Sequence[int],
    scvs: Sequence[float],
    app: ApplicationModel,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Speedup vs C² of the swept station (Figs. 8, 9)."""
    scvs = np.asarray(scvs, dtype=float)
    Ns = tuple(int(N) for N in Ns)
    cols = (executor or SweepExecutor()).map(
        _point_speedup_scv,
        [(kind, role, K, Ns, float(scv), app)
         for scv in scvs],
        label=experiment,
    )
    series = {
        f"N={N}": np.array([col[j] for col in cols]) for j, N in enumerate(Ns)
    }
    return ExperimentResult(
        experiment=experiment,
        description=(
            f"system speedup vs C², {K}-workstation {kind} cluster, "
            f"{role} server non-exponential"
        ),
        x_label="C2",
        x=scvs,
        series=series,
        meta={"K": K, "Ns": list(Ns), "kind": kind, "role": role},
    )


def speedup_vs_k_experiment(
    *,
    experiment: str,
    Ks: Sequence[int],
    curves: dict[str, tuple[Shape, int]],
    app: ApplicationModel,
    executor: SweepExecutor | None = None,
) -> ExperimentResult:
    """Speedup vs cluster size (Figs. 14, 15).

    ``curves`` maps a label to a (CPU shape, N) pair — Fig. 14 varies N at
    exponential service, Fig. 15 varies the CPU distribution at fixed N.
    """
    Ks = np.asarray(Ks, dtype=int)
    labels = list(curves)
    curve_items = tuple(curves[label] for label in labels)
    rows = (executor or SweepExecutor()).map(
        _point_speedup_k,
        [(int(K), curve_items, app) for K in Ks],
        label=experiment,
    )
    series = {
        label: np.array([row[j] for row in rows]) for j, label in enumerate(labels)
    }
    return ExperimentResult(
        experiment=experiment,
        description="system speedup vs cluster size K, central cluster",
        x_label="K",
        x=Ks.astype(float),
        series=series,
        meta={"curves": {k: (v[0].name, v[1]) for k, v in curves.items()}},
    )
