"""Figure 6: prediction error of the exponential assumption, K=5 distributed.

The distributed-storage disks (shared servers) are actually H2 with the
swept C²; the "model" assumes exponential.  Error is reported for N=30
(transient-dominated) and N=100 (steady-state-dominated) — §6.1.3.
"""

from __future__ import annotations

from repro.experiments._sweeps import prediction_error_experiment
from repro.experiments.params import BASE_APP, SCV_SWEEP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(*, K: int = 5, Ns=(30, 100), scvs=SCV_SWEEP, app=BASE_APP,
        executor=None) -> ExperimentResult:
    """Reproduce Figure 6."""
    return prediction_error_experiment(
        experiment="fig06",
        kind="distributed",
        role="shared",
        K=K,
        Ns=Ns,
        scvs=scvs,
        app=app,
        executor=executor,
    )
