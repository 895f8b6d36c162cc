"""Figure 13: prediction error for dedicated non-exponential CPUs, K=8.

As Figure 12 on the larger cluster — paper §6.2.2.
"""

from __future__ import annotations

from repro.experiments._sweeps import prediction_error_experiment
from repro.experiments.params import DEDICATED_APP, SCV_SWEEP_DEDICATED
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(
    *, K: int = 8, Ns=(30,), scvs=SCV_SWEEP_DEDICATED, app=DEDICATED_APP,
    executor=None,
) -> ExperimentResult:
    """Reproduce Figure 13."""
    return prediction_error_experiment(
        experiment="fig13",
        kind="central",
        role="dedicated",
        K=K,
        Ns=Ns,
        scvs=scvs,
        app=app,
        executor=executor,
    )
