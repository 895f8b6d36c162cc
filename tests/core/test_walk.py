"""The refill walk belongs to the model: warm answers are cold answers.

A model steps its refill walk ``x_{j+1} = x_j Y_K R_K`` once, up to the
converged head, and every later query reads it.  These tests hold a warm
model, asked sizes in an order that extends, rereads and leaves the walk
behind, to a fresh model per query, bit for bit, and check that a hook
raising mid-walk leaves nothing half-recorded.
"""

import numpy as np
import pytest

from repro.clusters import central_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.experiments.params import BASE_APP
from repro.obs import Instrumentation

K = 5


def _spec():
    return central_cluster(BASE_APP, {"rdisk": Shape.scv(10.0)})


def _head() -> int:
    model = TransientModel(_spec(), K)
    model.makespan(10**3)
    (walk,) = model.cache_info()["walks"]
    assert walk["head"] is not None
    return walk["head"]


def _sizes() -> list[int]:
    return [10**5, 30, K, K - 1, 10**3, _head() + K]


def _indices(N: int) -> list[int]:
    return sorted({0, N // 2, max(N - K, 0), N - 1})


@pytest.mark.parametrize("metric", ["makespan", "interdeparture_times",
                                    "epoch_vector"])
def test_warm_walk_answers_like_a_fresh_model(metric):
    warm = TransientModel(_spec(), K)
    for N in _sizes():
        cold = TransientModel(_spec(), K)
        if metric == "epoch_vector":
            for i in _indices(N):
                assert np.array_equal(warm.epoch_vector(N, i),
                                      cold.epoch_vector(N, i)), (N, i)
        else:
            a, b = getattr(warm, metric)(N), getattr(cold, metric)(N)
            assert np.array_equal(a, b), N


def test_walk_is_stepped_once():
    model = TransientModel(_spec(), K)
    head = _head()
    model.makespan(10**5)
    walk = model._walks[K]
    assert walk.head == head and len(walk.xs) == head + 1
    stored = list(walk.xs)
    model.makespan(10**4)
    model.interdeparture_times(head + K)
    assert all(a is b for a, b in zip(walk.xs, stored))
    assert len(walk.xs) == head + 1


def test_raising_hook_leaves_the_walk_whole():
    class Stop(Exception):
        pass

    def hook(j, k, x):
        if j == 12:
            raise Stop

    model = TransientModel(_spec(), K)
    model.instrument = Instrumentation(on_epoch=hook)
    with pytest.raises(Stop):
        model.interdeparture_times(200)
    walk = model._walks[K]
    assert len(walk.xs) == len(walk.dist) + 1 == 13
    model.instrument = None
    for N in (200, 30, 10**4):
        cold = TransientModel(_spec(), K)
        assert np.array_equal(model.interdeparture_times(N),
                              cold.interdeparture_times(N))
        assert np.array_equal(model.epoch_vector(N, N - 1),
                              cold.epoch_vector(N, N - 1))


def test_returned_vectors_do_not_alias_the_walk():
    model = TransientModel(_spec(), K)
    x = model.epoch_vector(100, 10)
    x[:] = 0.0
    assert np.array_equal(model.epoch_vector(100, 10),
                          TransientModel(_spec(), K).epoch_vector(100, 10))
    for v in model.epoch_vectors(40):
        v[:] = 0.0
    assert np.array_equal(model.interdeparture_times(40),
                          TransientModel(_spec(), K).interdeparture_times(40))
