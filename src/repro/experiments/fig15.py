"""Figure 15: speedup vs cluster size K at N=100, CPU ∈ {Exp, E2, H2 C²=2}.

Paper §6.2.3: the exponential distribution approximates the Erlang well
but overestimates the speedup of Hyperexponential-like applications.
"""

from __future__ import annotations

from repro.distributions.shapes import Shape
from repro.experiments._sweeps import speedup_vs_k_experiment
from repro.experiments.params import DEDICATED_APP
from repro.experiments.result import ExperimentResult

__all__ = ["run"]


def run(*, Ks=range(1, 11), N: int = 100, h2_scv: float = 2.0, app=DEDICATED_APP,
        executor=None) -> ExperimentResult:
    """Reproduce Figure 15."""
    curves = {
        "exp": (Shape.exponential(), int(N)),
        "E2": (Shape.erlang(2), int(N)),
        f"H2(C2={h2_scv:g})": (Shape.hyperexp(h2_scv), int(N)),
    }
    return speedup_vs_k_experiment(
        experiment="fig15",
        Ks=list(Ks),
        curves=curves,
        app=app,
        executor=executor,
    )
