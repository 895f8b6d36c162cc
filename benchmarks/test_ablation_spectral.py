"""Ablation: spectral epoch propagation vs the LU-stepped recurrence.

The design decision under test (ISSUE 8 tentpole): eigendecompose
``Y_K R_K`` once per model and evaluate any epoch — and the whole refill
portion of the makespan, as a geometric series — in closed form, instead
of stepping one LU solve per refill epoch.  The refill cost becomes
independent of ``N``; the headline case is a fig03-class makespan at
``N = 10⁴``, where a full stepped walk takes 10⁴ − K steps and the
spectral engine does none.  Both backends must agree to ≤1e-10 on every
figure-class workload (the same bar the tentpole's acceptance pins), and
no workload here may trip the engine's fallback ladder.
"""

import numpy as np
import pytest

from repro.clusters import central_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.experiments.params import BASE_APP

#: (name, K, N) of the two headline workloads tracked in BENCH_transient.json
WORKLOADS = [("fig03_class", 5, 30), ("fig04_class", 8, 60)]

#: the makespan workload where N-free refill pays off (≥10× acceptance bar)
BULK_N = 10_000


def _spec(scv: float = 10.0):
    return central_cluster(BASE_APP, {"rdisk": Shape.scv(scv)})


def _solve(propagation: str, K: int, N: int, scv: float = 10.0) -> np.ndarray:
    return TransientModel(_spec(scv), K, propagation=propagation).interdeparture_times(N)


def _makespan(propagation: str, K: int, N: int, scv: float = 10.0) -> float:
    return TransientModel(_spec(scv), K, propagation=propagation).makespan(N)


@pytest.mark.benchmark(group="spectral-fig03")
def test_spectral_fig03_class(benchmark):
    times = benchmark(_solve, "spectral", 5, 30)
    assert times.shape == (30,)


@pytest.mark.benchmark(group="spectral-fig03")
def test_propagator_fig03_class(benchmark):
    times = benchmark(_solve, "propagator", 5, 30)
    assert times.shape == (30,)


@pytest.mark.benchmark(group="spectral-makespan-n10k")
def test_spectral_makespan_n10k(benchmark):
    span = benchmark(_makespan, "spectral", 5, BULK_N)
    assert span > 0.0


@pytest.mark.benchmark(group="spectral-makespan-n10k")
def test_propagator_makespan_n10k(benchmark):
    span = benchmark(_makespan, "propagator", 5, BULK_N)
    assert span > 0.0


def test_equivalence_all_workloads(record_text):
    """spectral ≡ propagator to ≤1e-10 on both classes + H2 mixes, no fallback."""
    worst = 0.0
    lines = []
    cases = [(name, K, N, 10.0) for name, K, N in WORKLOADS]
    cases += [(f"fig03_h2_c{scv:g}", 5, 30, scv) for scv in (1.0, 10.0, 50.0)]
    for name, K, N, scv in cases:
        model = TransientModel(_spec(scv), K, propagation="spectral")
        fast = model.interdeparture_times(N)
        slow = _solve("propagator", K, N, scv)
        assert model.spectral_fallback is None, (
            f"{name}: spectral engine unexpectedly declined "
            f"({model.spectral_fallback})"
        )
        diff = float(np.max(np.abs(fast - slow)))
        worst = max(worst, diff)
        lines.append(f"{name}: max |spectral - propagator| = {diff:.3e}")
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-10)
    record_text(
        "ablation_spectral",
        "\n".join(lines)
        + f"\nworst-case deviation {worst:.3e} (gate: 1e-10)",
    )


def test_bulk_makespan_equivalence():
    """The N=10⁴ geometric-series makespan matches the stepped recurrence."""
    fast = _makespan("spectral", 5, BULK_N)
    slow = _makespan("propagator", 5, BULK_N)
    assert fast == pytest.approx(slow, rel=1e-9)
