"""Figure 10: inter-departure per epoch, N=20, K=5 distributed cluster.

Here the *dedicated* server (the CPU bank) is non-exponential — the case
where Jackson networks still apply and the transient model extends them
(paper §6.2.1).  Curves: exponential, Erlang-3 (C²=1/3), H2 (C²=2).  All
three approach the same steady-state value (product-form insensitivity of
delay stations), differing only in the transient and draining regions.
"""

from __future__ import annotations

from repro.experiments._sweeps import interdeparture_experiment
from repro.experiments.params import DEDICATED_APP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(
    *, K: int = 5, N: int = 20, scvs=(1.0, 1.0 / 3.0, 2.0), app=DEDICATED_APP,
    executor=None,
) -> ExperimentResult:
    """Reproduce Figure 10."""
    return interdeparture_experiment(
        experiment="fig10",
        kind="distributed",
        role="dedicated",
        K=K,
        N=N,
        scvs=scvs,
        app=app,
        executor=executor,
    )
