"""Figure 4: as Figure 3 (N=30, shared H2 remote disk) on K=8 workstations.

With K closer to N the steady-state region shrinks — the paper's warning
about applying product-form results to finite workloads.
"""

from __future__ import annotations

from repro.experiments._sweeps import interdeparture_experiment
from repro.experiments.params import BASE_APP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(*, K: int = 8, N: int = 30, scvs=(1.0, 10.0, 50.0), app=BASE_APP,
        executor=None) -> ExperimentResult:
    """Reproduce Figure 4."""
    return interdeparture_experiment(
        experiment="fig04",
        kind="central",
        role="shared",
        K=K,
        N=N,
        scvs=scvs,
        app=app,
        executor=executor,
    )
