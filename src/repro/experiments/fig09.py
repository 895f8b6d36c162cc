"""Figure 9: system speedup vs C² of the shared server, K=8 (paper §6.1.4)."""

from __future__ import annotations

from repro.experiments._sweeps import speedup_scv_experiment
from repro.experiments.params import BASE_APP, SCV_SWEEP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(*, K: int = 8, Ns=(30, 100), scvs=SCV_SWEEP, app=BASE_APP,
        executor=None) -> ExperimentResult:
    """Reproduce Figure 9."""
    return speedup_scv_experiment(
        experiment="fig09",
        kind="central",
        role="shared",
        K=K,
        Ns=Ns,
        scvs=scvs,
        app=app,
        executor=executor,
    )
