"""The default epoch engine vs the historical solve recurrence.

The default engine steps each epoch through a natural-order LU and one
CSR product, walking the refill once per model; the solve recurrence of
``tests/oracle.py`` is the bit-exact historical path (COLAMD LU solve +
sparse products per epoch).
The two must agree to near machine precision on every workload class, and
the shared epoch recurrence must expose identical hook/epoch-vector
semantics.
"""

import numpy as np
import pytest

from repro.clusters import central_cluster, distributed_cluster
from repro.core import TransientModel
from repro.core.epochs import epoch_distribution, epoch_scvs
from repro.distributions import Shape
from repro.experiments.params import BASE_APP
from repro.resilience.fallback import ResilientSolver
from tests import oracle


def _exact_rung(spec, K):
    """The model the ladder's exact rung solves with (guarded levels)."""
    return ResilientSolver(spec, K)._rung_model("exact")


def _pair(spec, K):
    """The default engine and a fresh model for the solve oracle."""
    return TransientModel(spec, K), TransientModel(spec, K)


class TestPropagatorEquivalence:
    @pytest.mark.parametrize(
        "shapes",
        [
            None,
            {"rdisk": Shape.hyperexp(10.0)},
            {"rdisk": Shape.scv(50.0)},
            {"rdisk": Shape.erlang(4)},
        ],
        ids=["exp", "h2-10", "h2-50", "erlang4"],
    )
    def test_central_interdeparture(self, shapes):
        fast, slow = _pair(central_cluster(BASE_APP, shapes), 5)
        np.testing.assert_allclose(
            fast.interdeparture_times(30),
            oracle.interdeparture_times(slow, 30),
            rtol=0.0,
            atol=1e-12,
        )

    def test_distributed_interdeparture(self):
        spec = distributed_cluster(BASE_APP, 3, shapes={"disk": Shape.scv(5.0)})
        fast, slow = _pair(spec, 3)
        np.testing.assert_allclose(
            fast.interdeparture_times(12),
            oracle.interdeparture_times(slow, 12),
            rtol=0.0,
            atol=1e-12,
        )

    def test_makespan(self):
        spec = central_cluster(BASE_APP, {"rdisk": Shape.hyperexp(10.0)})
        fast, slow = _pair(spec, 5)
        assert fast.makespan(30) == pytest.approx(
            oracle.makespan(slow, 30), abs=1e-12
        )

    def test_epoch_vectors(self):
        spec = central_cluster(BASE_APP, {"rdisk": Shape.hyperexp(10.0)})
        fast, slow = _pair(spec, 4)
        for xf, xs in zip(fast.epoch_vectors(10), oracle.epoch_vectors(slow, 10)):
            np.testing.assert_allclose(xf, xs, rtol=0.0, atol=1e-12)

    def test_small_N_drain_only(self):
        # N < K: no refill epochs, the recurrence starts mid-cascade.
        fast, slow = _pair(central_cluster(BASE_APP), 5)
        np.testing.assert_allclose(
            fast.interdeparture_times(3),
            oracle.interdeparture_times(slow, 3),
            rtol=0.0,
            atol=1e-12,
        )


class TestPropagationParameter:
    def test_default_is_propagator(self):
        model = TransientModel(central_cluster(BASE_APP), 3)
        assert model.propagation == "propagator"

    def test_invalid_mode_rejected(self):
        # "solve" was a mode of earlier releases; it lives in tests/oracle.py.
        for mode in ("magic", "solve"):
            with pytest.raises(ValueError, match="propagation"):
                TransientModel(central_cluster(BASE_APP), 3, propagation=mode)


class TestSharedRecurrence:
    """epoch_vectors, hooks and interdeparture_times share one driver."""

    def _model(self, **kwargs):
        return TransientModel(
            central_cluster(BASE_APP, {"rdisk": Shape.hyperexp(10.0)}),
            4,
            **kwargs,
        )

    def test_epoch_vectors_match_hook_vectors(self):
        from repro.obs import Instrumentation

        seen = []
        model = self._model(
            instrument=Instrumentation(
                on_epoch=lambda j, k, x: seen.append((j, k, x.copy()))
            )
        )
        model.interdeparture_times(10)
        vectors = self._model().epoch_vectors(10)
        assert len(seen) == len(vectors) == 10
        for (j, k, x), v in zip(seen, vectors):
            assert np.array_equal(x, v)

    def test_hook_sees_frozen_view(self):
        from repro.obs import Instrumentation

        def hostile(j, k, x):
            with pytest.raises(ValueError):
                x[:] = 0.0

        reference = self._model().interdeparture_times(8)
        model = self._model(instrument=Instrumentation(on_epoch=hostile))
        np.testing.assert_array_equal(model.interdeparture_times(8), reference)


class TestGuardedEpochs:
    """Epoch laws on a degradation-ladder rung model (guarded levels)."""

    def _spec(self):
        return central_cluster(BASE_APP, {"rdisk": Shape.scv(5.0)})

    def test_epoch_distribution_with_guards(self):
        plain = epoch_distribution(TransientModel(self._spec(), 3), 6, 2)
        guarded = epoch_distribution(_exact_rung(self._spec(), 3), 6, 2)
        assert guarded.mean == pytest.approx(plain.mean, rel=1e-12)
        assert guarded.moment(2) == pytest.approx(plain.moment(2), rel=1e-12)

    def test_epoch_scvs_with_guards(self):
        plain = epoch_scvs(TransientModel(self._spec(), 3), 6)
        guarded = epoch_scvs(_exact_rung(self._spec(), 3), 6)
        np.testing.assert_allclose(guarded, plain, rtol=1e-12)
