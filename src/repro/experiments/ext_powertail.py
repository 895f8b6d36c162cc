"""Extension experiment: power-tail shared service (beyond the paper's §6).

The paper's introduction motivates everything with power-tail measurements
(Leland & Ott CPU times; Crovella/Lipsky file sizes) but evaluates only
Erlangian and Hyperexponential laws.  This experiment closes that gap:
the shared remote disk serves truncated power-tail requests (Lipsky's TPT)
and we sweep the truncation depth ``m`` — as ``m`` grows the tail extends,
the effective C² explodes (1 → ~300 by m=16 at α=1.4), and both the
steady-state inter-departure time and the exponential model's error climb
monotonically with it.
"""

from __future__ import annotations

import numpy as np

from repro.clusters.central import central_cluster
from repro.core.metrics import exponential_twin, prediction_error
from repro.core.steady_state import solve_steady_state
from repro.core.transient import TransientModel
from repro.distributions.shapes import Shape
from repro.experiments.executor import SweepExecutor
from repro.experiments.params import BASE_APP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def _point(K: int, N: int, alpha: float, m: int, app) -> np.ndarray:
    """(effective C², exponential-model error, t_ss) at one depth ``m``."""
    spec = central_cluster(app, {"rdisk": Shape.power_tail(alpha, m=m)})
    actual = TransientModel(spec, K)
    expo = TransientModel(exponential_twin(spec), K)
    return np.array([
        spec.station("rdisk").dist.scv,
        prediction_error(actual.makespan(N), expo.makespan(N)),
        solve_steady_state(actual).interdeparture_time,
    ])


def run(
    *,
    K: int = 5,
    N: int = 30,
    alpha: float = 1.4,
    ms=(1, 2, 4, 8, 12, 16),
    app=BASE_APP,
    executor=None,
) -> ExperimentResult:
    """Sweep the TPT truncation depth on the shared remote disk.

    ``m = 1`` is the exponential baseline (zero error by construction).
    """
    ms = np.asarray(list(ms), dtype=int)
    rows = (executor or SweepExecutor()).map(
        _point, [(K, N, alpha, int(m), app) for m in ms],
        label="ext_powertail",
    )
    scv, err, t_ss = np.reshape(rows, (len(ms), 3)).T.copy()
    return ExperimentResult(
        experiment="ext_powertail",
        description=(
            f"truncated power tail (α={alpha:g}) on the shared remote disk, "
            f"K={K}, N={N}: effective C², steady-state t_ss, exponential-model error"
        ),
        x_label="m (truncation)",
        x=ms.astype(float),
        series={"scv": scv, "t_ss": t_ss, "error_pct": err},
        meta={"K": K, "N": N, "alpha": alpha},
    )
