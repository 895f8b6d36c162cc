"""Speedup, prediction error, utilizations."""

import numpy as np
import pytest

from repro.clusters import ApplicationModel, central_cluster
from repro.core import (
    TransientModel,
    exponential_twin,
    prediction_error,
    solve_steady_state,
    speedup,
    utilizations,
)
from repro.distributions import Shape


def _speedup(model, N):
    return speedup(model.spec, N, model.makespan(N))


class TestSpeedup:
    def test_single_workstation_is_one(self, central_spec):
        assert _speedup(TransientModel(central_spec, 1), 20) == pytest.approx(1.0)

    def test_bounded_by_K(self, central_spec):
        for K in (2, 4, 8):
            assert _speedup(TransientModel(central_spec, K), 50) <= K

    def test_increases_with_N(self, central_model):
        """More backlog → more steady-state time → better speedup."""
        sp = [_speedup(central_model, N) for N in (5, 20, 80)]
        assert sp[0] < sp[1] < sp[2]

    def test_contention_reduces_speedup(self):
        heavy = ApplicationModel(remote_time=3.0)
        light = ApplicationModel(local_time=11.0, remote_time=0.75)
        K, N = 6, 60
        sp_heavy = _speedup(TransientModel(central_cluster(heavy), K), N)
        sp_light = _speedup(TransientModel(central_cluster(light), K), N)
        assert sp_heavy < sp_light


class TestPredictionError:
    def test_zero_when_equal(self):
        assert prediction_error(10.0, 10.0) == 0.0

    def test_sign_convention(self):
        # Exponential underestimates → positive error.
        assert prediction_error(12.0, 9.0) == pytest.approx(25.0)
        assert prediction_error(9.0, 12.0) < 0

    def test_end_to_end_positive_for_h2_shared(self):
        app = ApplicationModel()
        spec = central_cluster(app, {"rdisk": Shape.hyperexp(10.0)})
        act = TransientModel(spec, 4)
        exp = TransientModel(exponential_twin(spec), 4)
        err = prediction_error(act.makespan(30), exp.makespan(30))
        assert err > 1.0


class TestExponentialTwin:
    def test_means_preserved(self, central_h2_spec):
        twin = exponential_twin(central_h2_spec)
        for st, st2 in zip(central_h2_spec.stations, twin.stations):
            assert st2.dist.mean == pytest.approx(st.dist.mean)
            assert st2.dist.n_stages == 1
            assert st2.servers == st.servers

    def test_routing_preserved(self, central_h2_spec):
        twin = exponential_twin(central_h2_spec)
        assert np.allclose(twin.routing, central_h2_spec.routing)
        assert np.allclose(twin.entry, central_h2_spec.entry)

    def test_idempotent_on_exponential(self, central_spec):
        twin = exponential_twin(central_spec)
        assert TransientModel(twin, 3).makespan(9) == pytest.approx(
            TransientModel(central_spec, 3).makespan(9)
        )


class TestUtilizations:
    def test_steady_state_utilizations(self, central_model):
        util = utilizations(central_model)
        # Shared stations bounded by server count.
        assert 0 < util[2] <= 1.0  # comm
        assert 0 < util[3] <= 1.0  # rdisk
        # Busy servers never exceed the population (queueing wastes some).
        assert util.sum() <= central_model.K + 1e-9

    def test_utilization_times_rate_is_throughput(self, central_model):
        """Flow conservation: busy servers × rate = visit throughput."""
        ss = solve_steady_state(central_model)
        util = utilizations(central_model)
        spec = central_model.spec
        visits = spec.visit_ratios()
        for j, st in enumerate(spec.stations):
            flow = util[j] / st.mean_service
            assert flow == pytest.approx(ss.throughput * visits[j], rel=1e-8)

    def test_matches_convolution_marginals(self, central_model):
        """Time-stationary utilizations equal the product-form baseline's."""
        from repro.jackson import convolution_analysis

        util = utilizations(central_model)
        pf = convolution_analysis(central_model.spec, central_model.K)
        assert np.allclose(util, pf.utilizations, rtol=1e-8)

    def test_explicit_level_requires_p_state(self, central_model):
        with pytest.raises(ValueError):
            utilizations(central_model, None, k=2)

    def test_explicit_p_state_at_lower_level(self, central_model):
        import numpy as np

        dim = central_model.level(2).dim
        util = utilizations(central_model, np.full(dim, 1.0 / dim), k=2)
        assert util.shape == (central_model.spec.n_stations,)


class TestTransientUtilizations:
    def test_shape_and_bounds(self, central_h2_model):
        import numpy as np

        from repro.core.metrics import transient_utilizations

        N = 20
        u = transient_utilizations(central_h2_model, N)
        assert u.shape == (N, 4)
        assert np.all(u >= -1e-12)
        # Shared stations bounded by their server count.
        assert np.all(u[:, 2] <= 1.0 + 1e-9)
        assert np.all(u[:, 3] <= 1.0 + 1e-9)
        # Total busy never exceeds active tasks (K at the start).
        assert np.all(u.sum(axis=1) <= central_h2_model.K + 1e-9)

    def test_warmup_and_draining_visible(self, central_h2_model):
        import numpy as np

        from repro.core.metrics import transient_utilizations

        u = transient_utilizations(central_h2_model, 30)
        cpu = u[:, 0]
        # First epoch starts with everything at the CPU (entry).
        assert cpu[0] == pytest.approx(central_h2_model.K)
        # Middle epochs settle; draining epochs empty out.
        assert cpu[15] == pytest.approx(cpu[16], rel=1e-6)
        assert u[-1].sum() == pytest.approx(1.0)  # one task left
