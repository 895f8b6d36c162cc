"""Figure 12: prediction error for dedicated non-exponential CPUs, K=5.

Paper §6.2.2: C² ∈ {1/3, 1/2, 1, 5, 10}; the exponential assumption is a
good approximation below C²=1 (small negative error) and fails above it.
"""

from __future__ import annotations

from repro.experiments._sweeps import prediction_error_experiment
from repro.experiments.params import DEDICATED_APP, SCV_SWEEP_DEDICATED
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(
    *, K: int = 5, Ns=(30,), scvs=SCV_SWEEP_DEDICATED, app=DEDICATED_APP,
    executor=None,
) -> ExperimentResult:
    """Reproduce Figure 12."""
    return prediction_error_experiment(
        experiment="fig12",
        kind="central",
        role="dedicated",
        K=K,
        Ns=Ns,
        scvs=scvs,
        app=app,
        executor=executor,
    )
