"""Extension experiment: data-allocation policies on distributed storage.

The authors built their data-allocation algorithms [15] on the
steady-state model; this experiment replays that use-case with the
transient model on heterogeneous hardware.  Sweep: one disk is ``s×``
faster than the rest; compare three placement policies by exact makespan.

The result is a genuine trade-off, not a single winner:

* *load-balanced* (weights ∝ speed, equal per-disk demand) always beats
  *uniform* placement;
* but at high skew the *hot-spot* policy (90 % of data on the fast disk)
  overtakes both — serving most requests on the fast device shrinks the
  cluster's **total** disk work faster than the imbalance costs, so the
  optimum placement depends on the skew, with a crossover the experiment
  locates.  Exactly the kind of insight [15] optimizes for.
"""

from __future__ import annotations

import numpy as np

from repro.clusters.extensions import (
    heterogeneous_distributed_cluster,
    load_balanced_weights,
)
from repro.core.transient import TransientModel
from repro.experiments.executor import SweepExecutor
from repro.experiments.params import BASE_APP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def _point(K: int, N: int, skew: float, app) -> np.ndarray:
    """Makespan of the (uniform, load-balanced, hot-spot) placements."""
    speeds = np.ones(K)
    speeds[0] = skew
    w_hot = np.full(K, 0.1 / (K - 1)) if K > 1 else np.ones(1)
    if K > 1:
        w_hot[0] = 0.9
    return np.array([
        TransientModel(
            heterogeneous_distributed_cluster(app, K, weights=w, speeds=speeds),
            K,
        ).makespan(N)
        for w in (np.full(K, 1.0 / K), load_balanced_weights(speeds), w_hot)
    ])


def run(
    *,
    K: int = 4,
    N: int = 30,
    skews=(1.0, 1.5, 2.0, 3.0, 4.0),
    app=BASE_APP,
    executor=None,
) -> ExperimentResult:
    """Makespan of three placement policies vs the fast-disk skew factor."""
    skews = np.asarray(list(skews), dtype=float)
    rows = (executor or SweepExecutor()).map(
        _point, [(K, N, float(s), app) for s in skews],
        label="ext_allocation",
    )
    uniform, balanced, hotspot = np.reshape(rows, (len(skews), 3)).T.copy()
    return ExperimentResult(
        experiment="ext_allocation",
        description=(
            f"makespan vs fast-disk skew for three data placements, "
            f"K={K} distributed cluster, N={N}"
        ),
        x_label="disk0 speed factor",
        x=skews,
        series={"uniform": uniform, "load_balanced": balanced, "hotspot_90pct": hotspot},
        meta={"K": K, "N": N},
    )
