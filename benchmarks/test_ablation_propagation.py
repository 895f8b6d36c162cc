"""Ablation: the default engine vs the per-epoch solve recurrence.

The default engine (labelled ``"propagator"`` for historical reasons; it
builds no propagator) steps each refill epoch through the level's
natural-order LU and one CSR product with ``(Q_K R_K)ᵀ``, once per
model up to the converged head.  The solve oracle of ``tests/oracle.py``
re-runs a COLAMD LU solve plus two sparse products every epoch.  Both
must agree to ≤1e-12 on every figure-class workload; the benchmark times
both on the fig03- and fig04-class configurations and the H2 mixes
swept by Fig. 3.
"""

import numpy as np
import pytest

from repro.clusters import central_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.experiments.params import BASE_APP
from tests import oracle

#: (name, K, N) of the two headline workloads tracked in BENCH_transient.json
WORKLOADS = [("fig03_class", 5, 30), ("fig04_class", 8, 60)]


def _spec(scv: float = 10.0):
    return central_cluster(BASE_APP, {"rdisk": Shape.scv(scv)})


def _solve(engine: str, K: int, N: int, scv: float = 10.0) -> np.ndarray:
    """``engine`` is the model's default ("propagator") or the "solve" oracle."""
    model = TransientModel(_spec(scv), K)
    if engine == "solve":
        return oracle.interdeparture_times(model, N)
    return model.interdeparture_times(N)


@pytest.mark.benchmark(group="propagation-fig03")
def test_propagator_fig03_class(benchmark):
    times = benchmark(_solve, "propagator", 5, 30)
    assert times.shape == (30,)


@pytest.mark.benchmark(group="propagation-fig03")
def test_solve_fig03_class(benchmark):
    times = benchmark(_solve, "solve", 5, 30)
    assert times.shape == (30,)


@pytest.mark.benchmark(group="propagation-fig04")
def test_propagator_fig04_class(benchmark):
    times = benchmark(_solve, "propagator", 8, 60)
    assert times.shape == (60,)


@pytest.mark.benchmark(group="propagation-fig04")
def test_solve_fig04_class(benchmark):
    times = benchmark(_solve, "solve", 8, 60)
    assert times.shape == (60,)


def test_equivalence_all_workloads(record_text):
    """propagator ≡ solve to ≤1e-12 on both workload classes + H2 mixes."""
    worst = 0.0
    lines = []
    cases = [(name, K, N, 10.0) for name, K, N in WORKLOADS]
    cases += [(f"fig03_h2_c{scv:g}", 5, 30, scv) for scv in (1.0, 10.0, 50.0)]
    for name, K, N, scv in cases:
        fast = _solve("propagator", K, N, scv)
        slow = _solve("solve", K, N, scv)
        diff = float(np.max(np.abs(fast - slow)))
        worst = max(worst, diff)
        lines.append(f"{name}: max |propagator - solve| = {diff:.3e}")
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-12)
    record_text(
        "ablation_propagation",
        "\n".join(lines)
        + f"\nworst-case deviation {worst:.3e} (gate: 1e-12)",
    )
