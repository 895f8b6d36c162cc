"""Figure 8: system speedup vs C² of the shared server, K=5 (paper §6.1.4).

N=30 keeps the system in the transient region; N=100 reaches steady state.
Both contention and high C² depress the speedup below the resource count.
"""

from __future__ import annotations

from repro.experiments._sweeps import speedup_scv_experiment
from repro.experiments.params import BASE_APP, SCV_SWEEP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(*, K: int = 5, Ns=(30, 100), scvs=SCV_SWEEP, app=BASE_APP,
        executor=None) -> ExperimentResult:
    """Reproduce Figure 8."""
    return speedup_scv_experiment(
        experiment="fig08",
        kind="central",
        role="shared",
        K=K,
        Ns=Ns,
        scvs=scvs,
        app=app,
        executor=executor,
    )
