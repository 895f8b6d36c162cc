"""The converged-tail stopping rule of the stepped refill walk.

The default engine stops stepping ``x ← x Y_K R_K`` once a geometric
bound on the error of every remaining refill epoch time is under
``TAIL_RTOL`` relative, then answers the rest of the refill at the
converged vector.  These tests hold the engine to the per-epoch solve
recurrence of ``tests/oracle.py`` (which steps every epoch), check that
hooks and spans keep their meaning, and pin the model on which a fixed
step-distance threshold never fires because rounding holds the distance
above it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.transient as transient
from repro.clusters import central_cluster
from repro.core import TransientModel
from repro.distributions import Shape, exponential
from repro.experiments.params import BASE_APP
from repro.network import NetworkSpec, Station
from repro.obs import Instrumentation
from tests import oracle
from tests.core.test_spectral_property import _random_spec

#: C² of the long-horizon benchmark grid's index 18 (2·30^(18/31) ≈ 14.4).
#: At K=8 (D = 285) its refill step distance stalls at 1.16–1.27e-15, so
#: a fixed ‖Δx‖₁ < 1e-15 threshold would walk every epoch.
ROUNDING_FLOOR_C2 = 2.0 * 30.0 ** (18 / 31)


def _central(c2: float, K: int) -> TransientModel:
    return TransientModel(central_cluster(BASE_APP, {"rdisk": Shape.scv(c2)}), K)


def _traced(model: TransientModel, N: int):
    ins = Instrumentation.enabled(measure_rss=False)
    model.instrument = ins
    times = model.interdeparture_times(N)
    model.instrument = None
    return times, ins


def _tail_spans(ins):
    return [sp for sp in ins.tracer.spans
            if sp.name == "epoch" and sp.attrs.get("phase") == "tail"]


class TestRoundingFloor:
    def test_stops_early_and_matches_the_full_walk(self):
        N, K = 10_000, 8
        times, ins = _traced(_central(ROUNDING_FLOOR_C2, K), N)
        (tail,) = _tail_spans(ins)
        head = tail.attrs["head"]
        assert head <= 60
        assert tail.attrs["epochs"] == N - K - head

        want = oracle.interdeparture_times(_central(ROUNDING_FLOOR_C2, K), N)
        np.testing.assert_allclose(times, want, rtol=1e-10, atol=0.0)
        span = _central(ROUNDING_FLOOR_C2, K).makespan(N)
        assert span == pytest.approx(float(want.sum()), rel=1e-10, abs=0.0)


class TestTailContract:
    def test_tail_epochs_hold_the_converged_time(self):
        N, K = 500, 5
        times, ins = _traced(_central(10.0, K), N)
        (tail,) = _tail_spans(ins)
        head = tail.attrs["head"]
        assert 0 < head < N - K
        assert np.all(times[head:N - K] == times[head])
        # One span per stepped epoch, one for the tail, one per drain epoch.
        spans = [sp for sp in ins.tracer.spans if sp.name == "epoch"]
        assert len(spans) == head + 1 + K
        counter = ins.metrics.counter("repro_epochs_solved_total")
        assert counter.value() == N

    def test_hook_sees_every_epoch_with_the_converged_vector(self):
        N, K = 300, 5
        seen = []
        model = _central(10.0, K)
        model.instrument = Instrumentation(
            on_epoch=lambda j, k, x: seen.append((j, k, x.copy())))
        model.interdeparture_times(N)
        vectors = _central(10.0, K).epoch_vectors(N)
        assert [j for j, _, _ in seen] == list(range(N))
        assert [k for _, k, _ in seen] == [K] * (N - K) + list(range(K, 0, -1))
        for (_, _, x), v in zip(seen, vectors):
            assert np.array_equal(x, v)
        # Past the head every refill epoch starts from one vector.
        assert np.array_equal(vectors[100], vectors[N - K - 1])

    def test_epoch_vector_past_the_head_is_the_converged_vector(self):
        N, K = 400, 5
        model = _central(50.0, K)
        vectors = model.epoch_vectors(N)
        for i in (0, 1, 20, 60, 200, N - K - 1, N - K, N - 1):
            assert np.array_equal(model.epoch_vector(N, i), vectors[i])

    def test_convergence_gauge_reports_distance_and_bound(self):
        _, ins = _traced(_central(10.0, 5), 400)
        g = ins.metrics.gauge("repro_epoch_convergence_distance")
        distance, bound = g.value(), g.value(quantity="bound")
        assert 0.0 < distance < 1e-10
        tau = _central(10.0, 5).level(5).tau
        assert 0.0 <= bound <= transient.TAIL_RTOL * float(np.max(tau))

    def test_exact_fixed_point_stops_after_one_step(self):
        # One exponential server at K=1: the single-state level never
        # moves, so the first step distance is exactly 0.
        spec = NetworkSpec(stations=(Station("s", exponential(2.0), 1),),
                           routing=np.zeros((1, 1)), entry=np.ones(1))
        times, ins = _traced(TransientModel(spec, 1), 1000)
        (tail,) = _tail_spans(ins)
        assert tail.attrs["head"] == 1
        assert np.all(times == 0.5)

    def test_rule_that_never_fires_walks_every_epoch(self, monkeypatch):
        N, K = 200, 5
        want = _central(10.0, K).interdeparture_times(N)
        monkeypatch.setattr(transient, "TAIL_RTOL", 0.0)
        times, ins = _traced(_central(10.0, K), N)
        assert _tail_spans(ins) == []
        refill = [sp for sp in ins.tracer.spans
                  if sp.name == "epoch" and sp.attrs["phase"] == "refill"]
        assert len(refill) == N - K
        np.testing.assert_allclose(times, want, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(
            times, oracle.interdeparture_times(_central(10.0, K), N),
            rtol=1e-12, atol=0.0)


class TestTailProperty:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 50_000), K=st.integers(2, 4),
           N=st.integers(1, 2000))
    @example(seed=40587, K=4, N=2000)
    def test_tail_agrees_with_the_full_walk(self, seed, K, N):
        spec = _random_spec(seed)
        model = TransientModel(spec, K)
        truth = TransientModel(spec, K)
        want_times = oracle.interdeparture_times(truth, N)
        np.testing.assert_allclose(
            model.interdeparture_times(N), want_times, rtol=0.0, atol=1e-10)
        assert model.makespan(N) == pytest.approx(
            oracle.makespan(truth, N), abs=1e-9, rel=1e-10)
        for a, b in zip(model.epoch_vectors(N), oracle.epoch_vectors(truth, N)):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)
