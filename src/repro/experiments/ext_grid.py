"""Extension experiment: data locality on a grid of clusters.

Sweeps the on-site hit rate of storage accesses on a two-site grid
(clusters.grid) and reports the exact makespan, speedup and WAN
utilization — quantifying when the wide-area link takes over as the
bottleneck (the grid deployment question the paper's platform citation
[7] raises).
"""

from __future__ import annotations

import numpy as np

from repro.clusters.grid import grid_cluster
from repro.core.metrics import speedup
from repro.core.sojourn import analyze_sojourn
from repro.core.transient import TransientModel
from repro.experiments.executor import SweepExecutor
from repro.experiments.params import BASE_APP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def _point(sites: int, K: int, N: int, wan_factor: float, loc: float,
           app) -> np.ndarray:
    """(makespan, speedup, WAN utilization) at one locality."""
    spec = grid_cluster(app, sites, locality=loc, wan_factor=wan_factor)
    model = TransientModel(spec, K)
    span = model.makespan(N)
    return np.array([
        span,
        speedup(spec, N, span),
        analyze_sojourn(model).station("wan_up").mean_busy,
    ])


def run(
    *,
    sites: int = 2,
    K: int = 6,
    N: int = 36,
    wan_factor: float = 3.0,
    localities=(1.0, 0.9, 0.8, 0.6, 0.4, 0.2),
    app=BASE_APP,
    executor=None,
) -> ExperimentResult:
    """Makespan / speedup / WAN utilization vs data locality."""
    localities = np.asarray(list(localities), dtype=float)
    rows = (executor or SweepExecutor()).map(
        _point,
        [(sites, K, N, wan_factor, float(loc), app) for loc in localities],
        label="ext_grid",
    )
    spans, sp, wan_util = np.reshape(rows, (len(localities), 3)).T.copy()
    return ExperimentResult(
        experiment="ext_grid",
        description=(
            f"{sites}-site grid, K={K}, N={N}, WAN {wan_factor:g}x a site "
            "channel: cost of losing data locality"
        ),
        x_label="locality",
        x=localities,
        series={"makespan": spans, "speedup": sp, "wan_util": wan_util},
        meta={"sites": sites, "K": K, "N": N, "wan_factor": wan_factor},
    )
