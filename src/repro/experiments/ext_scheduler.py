"""Extension experiment: scheduling overhead (the paper's §5 add-on).

Sweep the per-dispatch overhead of a shared scheduler on the central
cluster.  Small overheads cost roughly ``overhead × cycles`` per task
(additive); once the scheduler's demand crosses the remote disk's it
*becomes* the bottleneck and the makespan turns linear in the overhead
with slope ``N · cycles`` — a clean capacity-planning threshold.
"""

from __future__ import annotations

import numpy as np

from repro.clusters.extensions import central_cluster_with_scheduler
from repro.core.metrics import speedup
from repro.core.transient import TransientModel
from repro.experiments.executor import SweepExecutor
from repro.experiments.params import DEDICATED_APP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def _point(K: int, N: int, overhead: float, app) -> np.ndarray:
    """(makespan, speedup) at one per-dispatch overhead."""
    spec = central_cluster_with_scheduler(app, overhead)
    span = TransientModel(spec, K).makespan(N)
    return np.array([span, speedup(spec, N, span)])


def run(
    *,
    K: int = 5,
    N: int = 40,
    overheads=(0.01, 0.05, 0.1, 0.2, 0.4, 0.8),
    app=DEDICATED_APP,
    executor=None,
) -> ExperimentResult:
    """Makespan and speedup vs per-dispatch scheduler overhead."""
    overheads = np.asarray(list(overheads), dtype=float)
    rows = (executor or SweepExecutor()).map(
        _point, [(K, N, float(ov), app) for ov in overheads],
        label="ext_scheduler",
    )
    spans, sp = np.reshape(rows, (len(overheads), 2)).T.copy()
    return ExperimentResult(
        experiment="ext_scheduler",
        description=(
            f"scheduling overhead on a K={K} central cluster, N={N}: "
            "makespan and speedup vs per-dispatch cost"
        ),
        x_label="overhead/dispatch",
        x=overheads,
        series={"makespan": spans, "speedup": sp},
        meta={"K": K, "N": N, "cycles": app.cycles},
    )
