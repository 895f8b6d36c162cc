"""Figure 5: steady-state inter-departure time vs C², K=8 central cluster.

Two curves (paper §6.1.2): the shared remote disk under heavy load
("contention") and under light load ("no contention").  Without queueing
the service distribution is irrelevant (the curve is flat — insensitivity);
with contention the steady state depends on C², and not monotonically.
"""

from __future__ import annotations

from repro.experiments._sweeps import steady_state_scv_experiment
from repro.experiments.params import BASE_APP, LIGHT_APP, SCV_SWEEP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(
    *,
    K: int = 8,
    scvs=SCV_SWEEP,
    heavy_app=BASE_APP,
    light_app=LIGHT_APP,
    executor=None,
) -> ExperimentResult:
    """Reproduce Figure 5."""
    return steady_state_scv_experiment(
        experiment="fig05",
        K=K,
        scvs=scvs,
        heavy_app=heavy_app,
        light_app=light_app,
        executor=executor,
    )
