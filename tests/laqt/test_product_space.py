"""Full Kronecker product space vs the reduced model (must agree exactly)."""

import numpy as np
import pytest

from repro.clusters import ApplicationModel, central_cluster
from repro.core import TransientModel, solve_steady_state
from repro.distributions import Shape, exponential
from repro.laqt.product_space import FullProductModel
from repro.network import DELAY, NetworkSpec, Station


@pytest.fixture(scope="module")
def spec():
    return central_cluster(ApplicationModel())


class TestAgreement:
    def test_interdeparture_times_match(self, spec):
        K, N = 3, 9
        reduced = TransientModel(spec, K)
        full = FullProductModel(spec, K)
        assert np.allclose(
            reduced.interdeparture_times(N), full.interdeparture_times(N), rtol=1e-10
        )

    def test_makespan_matches(self, spec):
        assert FullProductModel(spec, 2).makespan(6) == pytest.approx(
            TransientModel(spec, 2).makespan(6), rel=1e-12
        )

    def test_steady_state_matches(self, spec):
        t_red = solve_steady_state(TransientModel(spec, 3)).interdeparture_time
        t_full = solve_steady_state(FullProductModel(spec, 3)).interdeparture_time
        assert t_full == pytest.approx(t_red, rel=1e-10)

    def test_mixed_server_kinds(self):
        spec = NetworkSpec(
            stations=(
                Station("bank", exponential(1.0), DELAY),
                Station("duo", exponential(2.0), 2),
                Station("solo", exponential(3.0), 1),
            ),
            routing=np.array(
                [[0.0, 0.3, 0.3], [0.5, 0.0, 0.0], [1.0, 0.0, 0.0]]
            ),
            entry=np.array([1.0, 0.0, 0.0]),
        )
        K, N = 3, 8
        assert np.allclose(
            TransientModel(spec, K).interdeparture_times(N),
            FullProductModel(spec, K).interdeparture_times(N),
            rtol=1e-10,
        )


class TestStateExplosion:
    def test_full_space_is_exponentially_larger(self, spec):
        """The paper's reduction: C(M+k−1, k) vs M^k states."""
        K = 4
        reduced = TransientModel(spec, K)
        full = FullProductModel(spec, K)
        assert full.level_dim(K) == spec.n_stations**K
        assert reduced.level_dim(K) < full.level_dim(K)

    def test_aggregation_projects_correctly(self, spec):
        full = FullProductModel(spec, 2)
        x = full.entrance_vector(2)
        agg = full.aggregate_to_reduced(x, 2)
        assert sum(agg.values()) == pytest.approx(1.0)
        # Both tasks start at the CPU (station 0).
        assert agg[(2, 0, 0, 0)] == pytest.approx(1.0)


class TestRejections:
    def test_non_exponential_rejected(self):
        spec = central_cluster(ApplicationModel(), {"rdisk": Shape.hyperexp(5.0)})
        with pytest.raises(ValueError, match="non-exponential"):
            FullProductModel(spec, 2)


class TestKeywordSurface:
    """Regression: __init__ used to reject the TransientModel keywords."""

    def test_instrument_epoch_callback_fires(self, spec):
        seen = []
        model = FullProductModel(
            spec, 2, instrument=lambda j, k, x: seen.append((j, k))
        )
        model.interdeparture_times(5)
        assert len(seen) == 5
