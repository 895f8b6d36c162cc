"""Figure 11: inter-departure per epoch, N=30, K=8 central cluster.

As Figure 10 (dedicated CPU non-exponential: Exp / E3 / H2) for the
central architecture — paper §6.2.1.
"""

from __future__ import annotations

from repro.experiments._sweeps import interdeparture_experiment
from repro.experiments.params import DEDICATED_APP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(
    *, K: int = 8, N: int = 30, scvs=(1.0, 1.0 / 3.0, 2.0), app=DEDICATED_APP,
    executor=None,
) -> ExperimentResult:
    """Reproduce Figure 11."""
    return interdeparture_experiment(
        experiment="fig11",
        kind="central",
        role="dedicated",
        K=K,
        N=N,
        scvs=scvs,
        app=app,
        executor=executor,
    )
