"""Figure 14: speedup vs cluster size K, exponential service (paper §6.2.3).

Three workloads N ∈ {20, 100, 200}: small workloads are dominated by the
transient/draining regions and flatten early; larger workloads track the
steady-state speedup further out.
"""

from __future__ import annotations

from repro.distributions.shapes import Shape
from repro.experiments._sweeps import speedup_vs_k_experiment
from repro.experiments.params import DEDICATED_APP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(*, Ks=range(1, 11), Ns=(20, 100, 200), app=DEDICATED_APP,
        executor=None) -> ExperimentResult:
    """Reproduce Figure 14."""
    exp = Shape.exponential()
    return speedup_vs_k_experiment(
        experiment="fig14",
        Ks=list(Ks),
        curves={f"N={N}": (exp, int(N)) for N in Ns},
        app=app,
        executor=executor,
    )
