"""Figure 7: prediction error of the exponential assumption, K=8 central.

As Figure 6 but for the central cluster's shared remote disk — §6.1.3.
"""

from __future__ import annotations

from repro.experiments._sweeps import prediction_error_experiment
from repro.experiments.params import BASE_APP, SCV_SWEEP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(*, K: int = 8, Ns=(30, 100), scvs=SCV_SWEEP, app=BASE_APP,
        executor=None) -> ExperimentResult:
    """Reproduce Figure 7."""
    return prediction_error_experiment(
        experiment="fig07",
        kind="central",
        role="shared",
        K=K,
        Ns=Ns,
        scvs=scvs,
        app=app,
        executor=executor,
    )
