"""Figure 3: inter-departure time per epoch, N=30 tasks, K=5 central cluster.

The shared remote disk is swept over {exponential, H2 C²=10, H2 C²=50}
(paper §6.1.1): Jackson networks cannot model the non-exponential shared
server, the transient model can.  The three performance regions (transient
ramp, steady state, draining) are visible in every series.
"""

from __future__ import annotations

from repro.experiments._sweeps import interdeparture_experiment
from repro.experiments.params import BASE_APP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(*, K: int = 5, N: int = 30, scvs=(1.0, 10.0, 50.0), app=BASE_APP,
        executor=None) -> ExperimentResult:
    """Reproduce Figure 3 (overridable parameters for exploration)."""
    return interdeparture_experiment(
        experiment="fig03",
        kind="central",
        role="shared",
        K=K,
        N=N,
        scvs=scvs,
        app=app,
        executor=executor,
    )
