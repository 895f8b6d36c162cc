"""Cross-module consistency on randomized systems.

Every solver in the library answers a question about the same object, so
their answers must agree.  This suite generates random small systems with
hypothesis and checks the whole web of identities at once — the strongest
regression net in the repository.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import TransientModel, solve_steady_state
from repro.core.epochs import epoch_distributions
from repro.distributions import exponential, fit_scv
from repro.jackson import (
    asymptotic_bounds,
    balanced_job_bounds,
    convolution_analysis,
)
from repro.laqt.product_space import FullProductModel
from repro.markov import MakespanAnalyzer
from repro.network import DELAY, NetworkSpec, Station


def _random_spec(seed: int, *, allow_ph: bool) -> NetworkSpec:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    stations = []
    for i in range(n):
        mean = float(rng.uniform(0.3, 2.0))
        if allow_ph and rng.random() < 0.5:
            scv = float(rng.uniform(0.3, 8.0))
            dist = fit_scv(mean, scv)
        else:
            dist = exponential(1.0 / mean)
        kind = DELAY if rng.random() < 0.4 else 1
        stations.append(Station(f"s{i}", dist, kind))
    raw = rng.uniform(0.0, 1.0, (n, n))
    routing = raw / raw.sum(axis=1, keepdims=True) * float(rng.uniform(0.4, 0.9))
    entry = rng.dirichlet(np.ones(n))
    return NetworkSpec(stations=tuple(stations), routing=routing, entry=entry)


class TestIdentityWeb:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 50_000), K=st.integers(1, 3), N=st.integers(3, 10))
    @example(seed=7, K=3, N=7)  # an all-exponential draw
    def test_three_routes_to_the_makespan(self, seed, K, N):
        """Epoch sum ≡ absorbing-chain mean ≡ epoch-law means, any system;
        ≡ the full Kronecker-space solve for exponential systems."""
        spec = _random_spec(seed, allow_ph=True)
        model = TransientModel(spec, K)
        times = model.interdeparture_times(N)
        span = float(times.sum())
        assert MakespanAnalyzer(model, N).mean() == pytest.approx(span, rel=1e-8)
        means = [d.mean for d in epoch_distributions(model, N)]
        assert np.allclose(means, times, rtol=1e-8)
        if all(st.dist.n_stages == 1 for st in spec.stations):
            full = FullProductModel(spec, K).makespan(N)
            assert full == pytest.approx(span, rel=1e-8)

    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 50_000), K=st.integers(1, 4))
    def test_steady_state_identities(self, seed, K):
        """For exponential systems: transient t_ss ≡ product form, inside
        both bound families; first task time = contention-free demand."""
        spec = _random_spec(seed, allow_ph=False)
        model = TransientModel(spec, K)
        t_ss = solve_steady_state(model).interdeparture_time
        pf = convolution_analysis(spec, K)
        assert t_ss == pytest.approx(pf.interdeparture_time, rel=1e-8)
        if any(not st.is_delay for st in spec.stations):
            assert asymptotic_bounds(spec, K).contains(pf.throughput)
            assert balanced_job_bounds(spec, K).contains(pf.throughput)
        assert model.makespan(1) == pytest.approx(spec.task_time(), rel=1e-8)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 50_000), K=st.integers(2, 3))
    def test_little_law_web(self, seed, K):
        """Time-stationary customers sum to K; flows balance per station."""
        from repro.core import analyze_sojourn

        spec = _random_spec(seed, allow_ph=True)
        model = TransientModel(spec, K)
        soj = analyze_sojourn(model)
        assert sum(s.mean_customers for s in soj.stations) == pytest.approx(K)
        for s in soj.stations:
            assert s.mean_customers == pytest.approx(
                s.visit_rate * s.residence_time, rel=1e-8
            )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 50_000))
    def test_serialization_preserves_solutions(self, seed):
        from repro.network import spec_from_json, spec_to_json

        spec = _random_spec(seed, allow_ph=True)
        spec2 = spec_from_json(spec_to_json(spec))
        a = TransientModel(spec, 2).interdeparture_times(6)
        b = TransientModel(spec2, 2).interdeparture_times(6)
        assert np.allclose(a, b, rtol=1e-12)
