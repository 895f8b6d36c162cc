"""Vectorized operator assembly vs the pure-Python reference.

The vectorized path must be *bit-identical* to the historical per-state
loops wherever every local state carries at most one event (all of the
paper's figure specs), and equal up to summation-order rounding for
multi-event stations (Erlang delay banks).  Row invariants
``P_k ε + Q_k ε = ε`` and ``R_k ε = ε`` must hold for every mix.
"""

import numpy as np
import pytest

from repro.clusters import central_cluster
from repro.core import TransientModel
from repro.distributions import Shape, exponential
from repro.laqt.automata import automaton_for
from repro.laqt.operators import build_level
from repro.laqt.states import build_spaces
from repro.network import DELAY, NetworkSpec, Station
from tests.oracle import ReferenceModel, build_level_reference


def _levels(spec, K, builder):
    autos = tuple(automaton_for(st) for st in spec.stations)
    spaces = build_spaces(autos, K)
    return [
        builder(autos, spec.routing, spec.exit, spec.entry, spaces[k], spaces[k - 1])
        for k in range(1, K + 1)
    ]


def _assert_equal(spec, K, *, exact=True):
    for fast, ref in zip(
        _levels(spec, K, build_level), _levels(spec, K, build_level_reference)
    ):
        pairs = [("rates", fast.rates, ref.rates)]
        for name in ("P", "Q", "R"):
            a, b = getattr(fast, name), getattr(ref, name)
            assert a.shape == b.shape, name
            assert a.nnz == b.nnz, name
            pairs.append((name, a.toarray(), b.toarray()))
        for name, a, b in pairs:
            if exact:
                assert np.array_equal(a, b), f"{name} differs at k={fast.k}"
            else:
                np.testing.assert_allclose(
                    a, b, rtol=1e-13, atol=0, err_msg=f"{name} at k={fast.k}"
                )


def _assert_row_invariants(spec, K):
    for ops in _levels(spec, K, build_level):
        eps = np.ones(ops.dim)
        rowsum = ops.P @ eps + ops.Q @ np.ones(ops.Q.shape[1])
        np.testing.assert_allclose(rowsum, eps, rtol=1e-12)
        np.testing.assert_allclose(
            ops.R @ np.ones(ops.R.shape[1]), np.ones(ops.R.shape[0]), rtol=1e-12
        )


class TestBitIdenticalToReference:
    def test_fig03_spec(self, central_spec):
        _assert_equal(central_spec, 5)

    def test_fig04_spec(self, central_spec):
        _assert_equal(central_spec, 8)

    def test_h2_remote_disk(self, central_h2_spec):
        _assert_equal(central_h2_spec, 5)

    def test_single_shared_queue(self, single_queue_spec):
        _assert_equal(single_queue_spec, 4)

    def test_single_delay_bank(self, delay_spec):
        _assert_equal(delay_spec, 4)


class TestMultiEventStations:
    """Erlang banks fire one event per occupied stage: equality up to rounding."""

    def test_erlang_cpu_mix(self, app):
        spec = central_cluster(
            app, {"cpu": Shape.erlang(3), "rdisk": Shape.hyperexp(10.0)}
        )
        _assert_equal(spec, 4, exact=False)

    def test_erlang_disk_mix(self, app):
        spec = central_cluster(app, {"disk": Shape.erlang(2)})
        _assert_equal(spec, 4, exact=False)


class TestRowInvariants:
    @pytest.mark.parametrize(
        "shapes",
        [
            {},
            {"rdisk": Shape.hyperexp(10.0)},
            {"cpu": Shape.erlang(3)},
            {"cpu": Shape.erlang(2), "rdisk": Shape.hyperexp(5.0)},
        ],
        ids=["exponential", "hyperexp", "erlang", "erlang+hyperexp"],
    )
    def test_central_mixes(self, app, shapes):
        _assert_row_invariants(central_cluster(app, shapes), 4)

    def test_random_exponential_networks(self, rng):
        for _ in range(4):
            M = int(rng.integers(2, 5))
            stations = tuple(
                Station(
                    f"s{i}",
                    exponential(float(rng.uniform(0.5, 3.0))),
                    DELAY if rng.random() < 0.3 else int(rng.integers(1, 3)),
                )
                for i in range(M)
            )
            routing = rng.uniform(0.0, 1.0, (M, M))
            routing *= rng.uniform(0.4, 0.9, (M, 1)) / routing.sum(
                axis=1, keepdims=True
            )
            entry = rng.uniform(0.1, 1.0, M)
            entry /= entry.sum()
            spec = NetworkSpec(stations=stations, routing=routing, entry=entry)
            _assert_row_invariants(spec, 4)
            _assert_equal(spec, 4)


class TestCsrFastPath:
    """`_coo_to_csr` skips scipy's canonicalization only when it may.

    Every branch — presorted single batch, unsorted batches, duplicate
    entries (scipy fallback) — must be **bit-identical** to the plain
    ``sp.csr_matrix((v, (r, c)))`` constructor: same data/indices/indptr
    bytes, and the canonical-format flags it advertises must be true.
    """

    @staticmethod
    def _assert_matches_scipy(rows, cols, vals, shape):
        import scipy.sparse as sp

        from repro.laqt.operators import _coo_to_csr

        fast = _coo_to_csr(rows, cols, vals, shape)
        ref = sp.csr_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=shape,
        )
        ref.sum_duplicates()
        ref.sort_indices()
        assert fast.shape == ref.shape
        assert np.array_equal(fast.data, ref.data)
        assert np.array_equal(fast.indices, ref.indices)
        assert np.array_equal(fast.indptr, ref.indptr)
        assert fast.has_sorted_indices
        # the flags must be *true*, not just set: a strict re-check
        check = fast.copy()
        check.has_sorted_indices = False
        check.sort_indices()
        assert np.array_equal(check.indices, fast.indices)
        assert np.array_equal(check.data, fast.data)

    def test_presorted_single_batch(self):
        r = np.array([0, 0, 1, 2, 2])
        c = np.array([1, 3, 0, 1, 2])
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        self._assert_matches_scipy([r], [c], [v], (3, 4))

    def test_unsorted_batches(self, rng):
        for _ in range(5):
            shape = (int(rng.integers(3, 20)), int(rng.integers(3, 20)))
            batches = int(rng.integers(1, 4))
            rows, cols, vals = [], [], []
            seen = set()
            for _ in range(batches):
                n = int(rng.integers(1, 12))
                pts = []
                for _ in range(n):
                    ij = (int(rng.integers(shape[0])),
                          int(rng.integers(shape[1])))
                    if ij not in seen:  # keep this case duplicate-free
                        seen.add(ij)
                        pts.append(ij)
                if not pts:
                    continue
                rows.append(np.array([p[0] for p in pts]))
                cols.append(np.array([p[1] for p in pts]))
                vals.append(rng.uniform(0.1, 5.0, len(pts)))
            if rows:
                self._assert_matches_scipy(rows, cols, vals, shape)

    def test_duplicates_fall_back_to_scipy_summation(self):
        r = np.array([0, 0, 1, 0])
        c = np.array([1, 1, 0, 2])  # (0,1) appears twice → must sum
        v = np.array([1.0, 2.0, 3.0, 4.0])
        self._assert_matches_scipy([r], [c], [v], (2, 3))

    def test_empty_rows_and_trailing_gap(self):
        r = np.array([1, 1])
        c = np.array([0, 2])
        v = np.array([1.0, 2.0])
        self._assert_matches_scipy([r], [c], [v], (5, 3))

    def test_index_dtype_matches_scipy_choice(self):
        import scipy.sparse as sp

        from repro.laqt.operators import _coo_to_csr

        out = _coo_to_csr([np.array([0, 1])], [np.array([0, 1])],
                          [np.array([1.0, 2.0])], (2, 2))
        ref = sp.csr_matrix(
            (np.array([1.0, 2.0]),
             (np.array([0, 1]), np.array([0, 1]))), shape=(2, 2))
        assert out.indices.dtype == ref.indices.dtype
        assert out.indptr.dtype == ref.indptr.dtype


class TestAssemblyBackendKwarg:
    def test_invalid_backend_rejected(self, central_spec):
        # Assembly is not a knob: the reference loops live in tests/oracle.py.
        with pytest.raises(TypeError, match="assembly"):
            TransientModel(central_spec, 3, assembly="reference")

    def test_reference_backend_matches_default(self, central_spec):
        fast = TransientModel(central_spec, 4)
        ref = ReferenceModel(central_spec, 4)
        assert np.array_equal(
            fast.interdeparture_times(10), ref.interdeparture_times(10)
        )
