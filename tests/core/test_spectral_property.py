"""Property test: both epoch engines agree with the solve oracle.

Hypothesis draws random small networks (Erlang and H2 service mixes,
random routing, random K and N) and requires the ``spectral`` and
``propagator`` engines to produce the epoch vectors, inter-departure
times and makespans of the solve recurrence (``tests/oracle.py``) to
≤1e-10 — or, when the spectral engine declines, to downgrade with a
reason code while still matching exactly.  One pinned ill-conditioned
case asserts the downgrade path itself.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import TransientModel
from repro.distributions import erlang, exponential, fit_scv
from repro.network import DELAY, NetworkSpec, Station
from repro.resilience.errors import SpectralFallbackError
from tests import oracle


def _random_spec(seed: int) -> NetworkSpec:
    """Random 2–3 station network mixing Erlang, H2 and exponential laws."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 4))
    stations = []
    for i in range(n):
        mean = float(rng.uniform(0.3, 2.0))
        pick = rng.random()
        if pick < 0.35:  # Erlang: SCV < 1
            m = int(rng.integers(2, 5))
            dist = erlang(m, m / mean)
        elif pick < 0.7:  # H2: SCV > 1
            dist = fit_scv(mean, float(rng.uniform(1.5, 20.0)))
        else:
            dist = exponential(1.0 / mean)
        kind = DELAY if rng.random() < 0.3 else 1
        stations.append(Station(f"s{i}", dist, kind))
    raw = rng.uniform(0.0, 1.0, (n, n))
    routing = raw / raw.sum(axis=1, keepdims=True) * float(rng.uniform(0.4, 0.9))
    entry = rng.dirichlet(np.ones(n))
    return NetworkSpec(stations=tuple(stations), routing=routing, entry=entry)


class TestBackendsAgree:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 50_000), K=st.integers(2, 4), N=st.integers(1, 20))
    # Probe residual 2.5e-11 with ‖τ'_K‖∞ = 22.4: the times drift 4.6e-10
    # unless the probe check is judged at τ's scale.
    @example(seed=40587, K=4, N=5)
    def test_three_backends_one_answer(self, seed, K, N):
        spec = _random_spec(seed)
        models = {
            mode: TransientModel(spec, K, propagation=mode)
            for mode in ("spectral", "propagator")
        }
        truth = TransientModel(spec, K)
        want_times = oracle.interdeparture_times(truth, N)
        want_span = oracle.makespan(truth, N)
        want_vecs = oracle.epoch_vectors(truth, N)
        for mode, model in models.items():
            np.testing.assert_allclose(
                model.interdeparture_times(N), want_times, rtol=0.0, atol=1e-10
            )
            assert model.makespan(N) == pytest.approx(
                want_span, abs=1e-9, rel=1e-10
            )
            for a, b in zip(model.epoch_vectors(N), want_vecs):
                np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)
        # The spectral engine either held or declined with a reason code —
        # a silent wrong answer is the one outcome the design forbids.
        fb = models["spectral"].spectral_fallback
        if fb is not None:
            assert fb.reason.startswith("spectral-")

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 50_000), K=st.integers(2, 4), N=st.integers(2, 20))
    def test_makespan_is_epoch_sum_under_spectral(self, seed, K, N):
        """The geometric-series makespan equals the summed epoch means."""
        spec = _random_spec(seed)
        model = TransientModel(spec, K, propagation="spectral")
        assert model.makespan(N) == pytest.approx(
            float(model.interdeparture_times(N).sum()), abs=1e-9, rel=1e-10
        )


class TestIllConditionedDowngrade:
    def test_downgrade_fires_with_reason_code(self, monkeypatch):
        """A degenerate eigenbasis must trip the probe, not the answer."""
        real_eig = np.linalg.eig

        def degenerate(T):
            w, V = real_eig(T)
            V = V.copy()
            V[:, -1] = V[:, 0] * (1.0 + 1e-13)  # nearly defective basis
            return w, V

        monkeypatch.setattr(np.linalg, "eig", degenerate)
        spec = _random_spec(7)
        model = TransientModel(spec, 3, propagation="spectral")
        reference = TransientModel(spec, 3).interdeparture_times(10)
        times = model.interdeparture_times(10)
        fb = model.spectral_fallback
        assert isinstance(fb, SpectralFallbackError)
        assert fb.reason in (
            "spectral-residual", "spectral-nonfinite", "spectral-eig-failed"
        )
        assert model.effective_propagation == "propagator"
        np.testing.assert_allclose(times, reference, rtol=0.0, atol=1e-12)
