"""solve_many semantics: bit-identical to cold, deduped, order-free.

``solve_many`` answers are bit-identical to per-query cold solves at
**any** batch order or concurrency, and batches dedupe duplicate
questions.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.clusters import central_cluster, distributed_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.experiments.params import BASE_APP
from repro.serve import ModelCache, Query, SolverService, solve_many


def _spec(scv: float = 10.0):
    return central_cluster(BASE_APP, {"rdisk": Shape.scv(scv)})


def _cold(q: Query):
    model = TransientModel(q.spec, q.K)
    if q.metric == "makespan":
        return model.makespan(q.N)
    if q.metric == "interdeparture":
        return model.interdeparture_times(q.N)
    return model.departure_times(q.N)


def _same_bits(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    return a == b


MIXED_BATCH = [
    Query(spec=_spec(), K=5, N=30),
    Query(spec=_spec(), K=5, N=30, metric="interdeparture"),
    Query(spec=_spec(50.0), K=5, N=20),
    Query(spec=_spec(), K=4, N=30),
    Query(spec=_spec(), K=5, N=30),  # duplicate of [0]
    Query(spec=distributed_cluster(BASE_APP, 4), K=4, N=25,
          metric="departure"),
]


class TestBitIdentical:
    def test_batch_matches_per_query_cold(self):
        answers = solve_many(MIXED_BATCH)
        for q, a in zip(MIXED_BATCH, answers):
            assert _same_bits(a.value, _cold(q)), q

    @pytest.mark.parametrize("order", [
        [0, 1, 2, 3, 4, 5],
        [5, 4, 3, 2, 1, 0],
        [2, 0, 5, 4, 1, 3],
    ])
    def test_any_batch_order(self, order):
        batch = [MIXED_BATCH[i] for i in order]
        answers = solve_many(batch)
        for q, a in zip(batch, answers):
            assert _same_bits(a.value, _cold(q)), q

    def test_warm_batch_equals_cold_batch(self):
        service = SolverService(cache=ModelCache())
        first = service.solve_many(MIXED_BATCH)
        second = service.solve_many(MIXED_BATCH)  # fully warm now
        for a, b in zip(first, second):
            assert _same_bits(a.value, b.value)
            assert a.fingerprint == b.fingerprint
        assert not any(a.cached for a in first if not a.deduped)
        assert all(a.cached for a in second)


class TestDedupe:
    def test_duplicate_query_shares_value_and_flags(self):
        answers = solve_many(MIXED_BATCH)
        assert answers[4].deduped
        assert not answers[0].deduped
        assert answers[4].fingerprint == answers[0].fingerprint
        assert _same_bits(answers[4].value, answers[0].value)

    def test_one_model_build_per_group(self):
        cache = ModelCache()
        service = SolverService(cache=cache)
        service.solve_many(MIXED_BATCH)
        # 4 distinct models: central K5, central-scv50 K5, central K4,
        # distributed K4 (queries 0/1/4 share the first)
        assert cache.stats()["misses"] == 4
        assert len(cache) == 4

    def test_n_sweep_pays_one_build(self):
        cache = ModelCache()
        service = SolverService(cache=cache)
        sweep = [Query(spec=_spec(), K=5, N=n) for n in (10, 20, 30, 40)]
        answers = service.solve_many(sweep)
        assert cache.stats()["misses"] == 1
        assert len({a.model_fingerprint for a in answers}) == 1
        for q, a in zip(sweep, answers):
            assert a.value == _cold(q)


class TestConcurrency:
    def test_racing_solve_many_callers_share_one_build(self):
        """Threads hammering one fingerprint: a single build, and every
        caller's answer is bit-identical to the cold value."""
        builds = 0
        orig_init = TransientModel.__init__

        def counting_init(self, *a, **kw):
            nonlocal builds
            builds += 1
            orig_init(self, *a, **kw)

        cold = _cold(Query(spec=_spec(), K=5, N=30))
        service = SolverService(cache=ModelCache())
        got, errors = [], []

        def caller():
            try:
                got.append(service.solve_many(
                    [Query(spec=_spec(), K=5, N=30)]
                )[0])
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=caller) for _ in range(8)]
        try:
            TransientModel.__init__ = counting_init
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            TransientModel.__init__ = orig_init
        assert not errors
        assert builds == 1
        assert len(got) == 8
        assert all(a.value == cold for a in got)


class TestValidation:
    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            Query(spec=_spec(), K=5, N=30, metric="latency")

    def test_solve_is_solve_many_of_one(self):
        service = SolverService(cache=ModelCache())
        q = Query(spec=_spec(), K=5, N=30)
        assert service.solve(q).value == service.solve_many([q])[0].value
