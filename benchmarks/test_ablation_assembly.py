"""Ablation: vectorized operator assembly vs the pure-Python reference.

The design decision under test: level operators are assembled from
precomputed automaton tables with whole-level numpy batches, not the
per-state Python loops of ``tests/oracle.py``.  Both must produce
bit-identical operators on the figure specs; the benchmark quantifies the
assembly speedup on the fig04-class workload (K=8, D(8)=285).
"""

import numpy as np
import pytest

from repro.clusters import central_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.experiments.params import BASE_APP
from tests.oracle import ReferenceModel

K = 8


def _spec():
    return central_cluster(BASE_APP, {"rdisk": Shape.hyperexp(10.0)})


def _build_all(assembly: str) -> TransientModel:
    cls = ReferenceModel if assembly == "reference" else TransientModel
    model = cls(_spec(), K)
    for k in range(1, K + 1):
        model.level(k)
    return model


@pytest.mark.benchmark(group="assembly")
def test_vectorized_assembly(benchmark):
    model = benchmark(_build_all, "vectorized")
    assert model.level_dim(K) == 285


@pytest.mark.benchmark(group="assembly")
def test_reference_assembly(benchmark, record_text):
    model = benchmark.pedantic(_build_all, args=("reference",), rounds=3, iterations=1)
    fast = _build_all("vectorized")
    for k in range(1, K + 1):
        a, b = fast.level(k), model.level(k)
        assert np.array_equal(a.rates, b.rates)
        assert np.array_equal(a.P.toarray(), b.P.toarray())
        assert np.array_equal(a.Q.toarray(), b.Q.toarray())
        assert np.array_equal(a.R.toarray(), b.R.toarray())
    record_text(
        "ablation_assembly",
        f"K={K}, top-level dim={fast.level_dim(K)}\n"
        "vectorized and reference assembly are bit-identical across all "
        "levels (see pytest-benchmark table for timing)",
    )
