"""Level operators M_k, P_k, Q_k, R_k: invariants and known answers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clusters import ApplicationModel, central_cluster
from repro.core import TransientModel
from repro.distributions import Shape, exponential
from repro.network import DELAY, NetworkSpec, Station
from repro.obs import Instrumentation
from tests import oracle


def _random_spec(draw_servers, n, seed):
    """Small random exponential network with guaranteed exit."""
    rng = np.random.default_rng(seed)
    stations = tuple(
        Station(f"s{i}", exponential(float(rng.uniform(0.5, 3.0))), draw_servers(i))
        for i in range(n)
    )
    raw = rng.uniform(0.0, 1.0, size=(n, n))
    scale = rng.uniform(0.5, 0.95, size=n)  # rows sum below 1 → exit everywhere
    routing = raw / raw.sum(axis=1, keepdims=True) * scale[:, None]
    entry = rng.uniform(0.1, 1.0, size=n)
    entry /= entry.sum()
    return NetworkSpec(stations=stations, routing=routing, entry=entry)


class TestRowInvariants:
    """P_k ε + Q_k ε = ε and R_k ε = ε, for varied networks and levels."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 4))
    def test_random_exponential_networks(self, seed, k):
        rng = np.random.default_rng(seed)
        kinds = [1, 2, DELAY]
        spec = _random_spec(
            lambda i: kinds[rng.integers(0, 3)], int(rng.integers(2, 4)), seed
        )
        model = TransientModel(spec, k)
        ops = model.level(k)
        rows = np.asarray(ops.P.sum(axis=1)).ravel() + np.asarray(
            ops.Q.sum(axis=1)
        ).ravel()
        assert np.allclose(rows, 1.0)
        assert np.allclose(np.asarray(ops.R.sum(axis=1)).ravel(), 1.0)
        assert np.all(ops.rates > 0)
        assert np.all(ops.tau > 0)

    def test_stage_expanded_cluster(self):
        spec = central_cluster(
            ApplicationModel(),
            {"rdisk": Shape.hyperexp(10.0), "cpu": Shape.erlang(2)},
        )
        model = TransientModel(spec, 4)
        for k in range(1, 5):
            ops = model.level(k)
            rows = np.asarray(ops.P.sum(axis=1)).ravel() + np.asarray(
                ops.Q.sum(axis=1)
            ).ravel()
            assert np.allclose(rows, 1.0)
            assert np.allclose(np.asarray(ops.R.sum(axis=1)).ravel(), 1.0)


class TestYOperator:
    def test_Y_is_stochastic(self, central_h2_model):
        """Y_k = (I−P_k)⁻¹ Q_k must map distributions to distributions."""
        for k in (1, 3, 5):
            ops = central_h2_model.level(k)
            x = np.zeros(ops.dim)
            x[0] = 1.0
            y = ops.apply_Y(x)
            assert y.sum() == pytest.approx(1.0)
            assert np.all(y >= -1e-12)

    def test_dense_Y_matches_apply(self, central_model):
        ops = central_model.level(3)
        Y = ops.dense_Y()
        assert np.allclose(Y.sum(axis=1), 1.0)
        x = np.random.default_rng(0).dirichlet(np.ones(ops.dim))
        assert np.allclose(x @ Y, ops.apply_Y(x))

    def test_dense_V_gives_tau(self, central_model):
        ops = central_model.level(2)
        V = ops.dense_V()
        assert np.allclose(V @ np.ones(ops.dim), ops.tau)

    def test_apply_YR_composition(self, central_model):
        ops = central_model.level(central_model.K)
        x = central_model.entrance_vector()
        direct = ops.apply_YR(x)
        composed = ops.apply_Y(x) @ ops.R
        assert np.allclose(direct, composed)


class TestKnownAnswers:
    def test_mm1_tau_is_constant(self, single_queue_spec):
        """Single shared exp(µ) server: τ'_k = 1/µ from every state."""
        model = TransientModel(single_queue_spec, 3)
        for k in (1, 2, 3):
            assert np.allclose(model.level(k).tau, 0.5)

    def test_delay_tau_scales(self, delay_spec):
        """Delay bank of exp(µ): τ'_k = 1/(kµ)."""
        model = TransientModel(delay_spec, 4)
        for k in (1, 2, 4):
            assert np.allclose(model.level(k).tau, 1.0 / (k * 2.0))

    def test_tandem_two_queues_tau(self):
        """Tandem a→b, departure only from b: time to first departure from
        state 'task at a' is 1/µa + 1/µb."""
        spec = NetworkSpec(
            stations=(
                Station("a", exponential(1.0), 1),
                Station("b", exponential(2.0), 1),
            ),
            routing=np.array([[0.0, 1.0], [0.0, 0.0]]),
            entry=np.array([1.0, 0.0]),
        )
        model = TransientModel(spec, 1)
        ops = model.level(1)
        idx_a = ops.space.index[((1,), (0,))]
        idx_b = ops.space.index[((0,), (1,))]
        assert ops.tau[idx_a] == pytest.approx(1.0 + 0.5)
        assert ops.tau[idx_b] == pytest.approx(0.5)

    def test_level_bounds_enforced(self, central_model):
        with pytest.raises(ValueError):
            central_model.level(0)
        with pytest.raises(ValueError):
            central_model.level(6)


class TestAboveCapLUStepping:
    """Every level steps through a natural-order LU and builds no propagator.

    The name is historical: only levels above a dense propagator cap used
    to step this way.  There is no cap now; the refill step is one
    transposed solve and one CSR product with ``(Q_k R_k)ᵀ``.
    """

    def test_builds_no_propagator(self, central_h2_spec):
        model = TransientModel(central_h2_spec, 5)
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            model.interdeparture_times(30)
        rows = model.cache_info()["levels"]
        assert [row["level"] for row in rows] == [1, 2, 3, 4, 5]
        for row in rows:
            assert row["lu"]
            assert not row["spectral"]
        built = ins.metrics.counter("repro_propagators_built_total")
        assert built.labels_seen() == []
        assert "propagator" not in {sp.name for sp in ins.tracer.spans}

    def test_only_spectral_builds_a_propagator(self, central_h2_spec):
        model = TransientModel(central_h2_spec, 5, propagation="spectral")
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            model.interdeparture_times(30)
        assert model.effective_propagation == "spectral"
        rows = model.cache_info()["levels"]
        assert [row["spectral"] for row in rows] == [False] * 4 + [True]
        built = ins.metrics.counter("repro_propagators_built_total")
        assert built.value(kind="YR", storage="dense") == 1

    def test_lu_is_natural_order(self, central_h2_spec):
        model = TransientModel(central_h2_spec, 5)
        for k in range(1, 6):
            ops = model.level(k)
            assert np.array_equal(ops.lu.perm_c, np.arange(ops.dim))

    def test_matches_solve_path(self, central_h2_spec):
        fast = TransientModel(central_h2_spec, 5)
        hist = TransientModel(central_h2_spec, 5)
        np.testing.assert_allclose(
            fast.interdeparture_times(30), oracle.interdeparture_times(hist, 30),
            rtol=0.0, atol=1e-12,
        )

    def test_guarded_level_steps_through_lu(self, central_h2_spec):
        from repro.resilience.fallback import ResilienceConfig, ResilientSolver

        plain = TransientModel(central_h2_spec, 5).interdeparture_times(30)
        solver = ResilientSolver(central_h2_spec, 5,
                                 ResilienceConfig(ladder=("exact",)))
        res = solver.solve(30)
        assert res.report.method == "exact"
        assert np.array_equal(res.interdeparture_times, plain)
        assert not solver._base_model().cache_info()["levels"][-1]["spectral"]

    def test_fault_drill_recovers_through_lu(self, central_h2_spec):
        from repro.resilience.fallback import ResilienceConfig, solve_resilient
        from repro.resilience.faults import FaultPlan

        plain = TransientModel(central_h2_spec, 5).interdeparture_times(30)
        cfg = ResilienceConfig(faults=FaultPlan(nan_level=5, nan_mode="once"))
        res = solve_resilient(central_h2_spec, 5, 30, cfg)
        assert res.report.method == "refine"
        np.testing.assert_allclose(res.interdeparture_times, plain,
                                   rtol=0.0, atol=1e-12)

    def test_small_level_steps_through_lu(self, central_spec):
        """A 30-state level, under the old dense cap, steps the same way."""
        model = TransientModel(central_spec, 3)
        ops = model.level(3)
        x = model.entrance_vector(3)
        want = ops.QRt @ ops.lu.solve(x, trans="T")
        assert np.array_equal(ops.apply_YR(x), want)
        assert np.array_equal(ops.lu.perm_c, np.arange(ops.dim))
        np.testing.assert_allclose(
            model.interdeparture_times(10),
            oracle.interdeparture_times(TransientModel(central_spec, 3), 10),
            rtol=0.0, atol=1e-12,
        )


def test_fig06_distributed_k5_matches_solve_path():
    """fig06's distributed K=5 point, C²=10: a 2668-state top level.

    The level the old dense cap singled out for LU stepping; every
    level steps that way now, and this one must still match the
    COLAMD-factored solve oracle.
    """
    from repro.clusters import distributed_cluster

    spec = distributed_cluster(ApplicationModel(), 5,
                               shapes={"disk": Shape.hyperexp(10.0)})
    fast = TransientModel(spec, 5)
    hist = TransientModel(spec, 5)
    assert fast.level(5).dim == 2668
    for N in (30, 100):
        assert fast.makespan(N) == pytest.approx(oracle.makespan(hist, N),
                                                 rel=1e-12, abs=0.0)
    assert not fast.cache_info()["levels"][-1]["spectral"]
