"""Spectral epoch propagation: equivalence, fallback ladder, N validation.

The spectral engine evaluates the refill recurrence
``x_{i+1} = x_i (Y_K R_K)`` in closed form through one eigendecomposition
per model.  These tests pin the three contracts that make it safe to
select: the vectors and scalars it produces are identical (≤1e-10) to the
solve recurrence of ``tests/oracle.py``; every refusal path downgrades to
the propagator with a sticky reason code and *still returns the right
answer*; and the ``N`` validation bugs fixed alongside it stay fixed.
"""

import numpy as np
import pytest

from repro.clusters import ApplicationModel, central_cluster, distributed_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.obs import Instrumentation
from repro.resilience.errors import ConvergenceError, SpectralFallbackError
from tests import oracle

BASE_APP = ApplicationModel()


def _spec(kind: str = "h2-10"):
    if kind == "exp":
        return central_cluster(BASE_APP)
    if kind == "erlang4":
        return central_cluster(BASE_APP, {"rdisk": Shape.erlang(4)})
    scv = float(kind.split("-")[1])
    return central_cluster(BASE_APP, {"rdisk": Shape.hyperexp(scv)})


def _pair(spec, K: int):
    """(spectral model, default model for the solve oracle) over one spec."""
    return (
        TransientModel(spec, K, propagation="spectral"),
        TransientModel(spec, K),
    )


class TestSpectralEquivalence:
    """Closed-form powers ≡ per-epoch solves on every workload class."""

    @pytest.mark.parametrize("kind", ["exp", "h2-10", "h2-50", "erlang4"])
    def test_interdeparture_times(self, kind):
        spectral, solve = _pair(_spec(kind), 5)
        a = spectral.interdeparture_times(30)
        b = oracle.interdeparture_times(solve, 30)
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)
        assert spectral.spectral_fallback is None

    def test_distributed_cluster(self):
        spec = distributed_cluster(BASE_APP, 3)
        spectral, solve = _pair(spec, 3)
        np.testing.assert_allclose(
            spectral.interdeparture_times(12),
            oracle.interdeparture_times(solve, 12),
            rtol=0.0, atol=1e-10,
        )

    @pytest.mark.parametrize("kind", ["exp", "h2-10", "h2-50"])
    def test_makespan_geometric_series(self, kind):
        """The bulk path sums the refill as a geometric series — same total."""
        spectral, solve = _pair(_spec(kind), 5)
        assert spectral.makespan(40) == pytest.approx(
            oracle.makespan(solve, 40), abs=1e-9, rel=1e-10
        )

    def test_epoch_vectors(self):
        spectral, solve = _pair(_spec("h2-10"), 4)
        va = spectral.epoch_vectors(10)
        vb = oracle.epoch_vectors(solve, 10)
        assert len(va) == len(vb) == 10
        for a, b in zip(va, vb):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)

    def test_epoch_vector_matches_materialized_list(self):
        """Direct epoch-i evaluation ≡ the i-th materialized vector."""
        model = TransientModel(_spec("h2-10"), 4, propagation="spectral")
        N = 12
        all_vecs = model.epoch_vectors(N)
        for i in (0, 1, N - model.K - 1, N - model.K, N - 2, N - 1):
            np.testing.assert_allclose(
                model.epoch_vector(N, i), all_vecs[i], rtol=0.0, atol=1e-12
            )

    def test_epoch_vector_bounds(self):
        model = TransientModel(_spec("exp"), 3, propagation="spectral")
        with pytest.raises(ValueError):
            model.epoch_vector(5, -1)
        with pytest.raises(ValueError):
            model.epoch_vector(5, 5)

    def test_bulk_path_matches_stepped_path(self):
        """A per-epoch observer forces the stepped spectral path — the
        vectors it sees and the times it returns must equal the bulk
        closed form (the resilience budget clock rides this guarantee)."""
        spec = _spec("h2-10")
        bulk = TransientModel(spec, 4, propagation="spectral")
        stepped = TransientModel(spec, 4, propagation="spectral")
        seen = []
        stepped.instrument = Instrumentation(
            on_epoch=lambda j, k, x: seen.append(np.array(x))
        )
        tb = bulk.interdeparture_times(14)
        ts = stepped.interdeparture_times(14)
        np.testing.assert_allclose(tb, ts, rtol=0.0, atol=1e-10)
        assert len(seen) == 14
        hooked_vecs = stepped.epoch_vectors(14)
        for a, b in zip(seen, hooked_vecs):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-10)

    def test_small_N_is_drain_only(self):
        """N ≤ K has no refill phase; spectral must not engage or differ."""
        spectral, solve = _pair(_spec("exp"), 5)
        np.testing.assert_allclose(
            spectral.interdeparture_times(3),
            oracle.interdeparture_times(solve, 3),
            rtol=0.0, atol=1e-12,
        )

    def test_gauge_reports_exact_spectral_gap(self):
        model = TransientModel(_spec("h2-10"), 4, propagation="spectral")
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            model.instrument = ins
            model.interdeparture_times(12)
        top = model.level(4)
        gap = top.spectral_YR().gap
        gauge = ins.metrics.gauge("repro_epoch_convergence_distance")
        assert gauge.value() == gap
        assert 0.0 < gap < 1.0


class TestSpectralFallback:
    """Every refusal downgrades stickily — and never changes the answer."""

    def _assert_downgraded(self, model, cause: str, reference):
        times = model.interdeparture_times(12)
        exc = model.spectral_fallback
        assert isinstance(exc, SpectralFallbackError)
        assert exc.reason == f"spectral-{cause}"
        assert model.effective_propagation == "propagator"
        np.testing.assert_allclose(times, reference, rtol=0.0, atol=1e-12)

    def test_eig_failed(self, monkeypatch):
        reference = TransientModel(_spec("h2-10"), 4).interdeparture_times(12)

        def boom(_T):
            raise np.linalg.LinAlgError("forced eig failure")

        monkeypatch.setattr(np.linalg, "eig", boom)
        model = TransientModel(_spec("h2-10"), 4, propagation="spectral")
        self._assert_downgraded(model, "eig-failed", reference)

    def test_residual_guard(self, monkeypatch):
        """A perturbed eigenbasis fails the probe self-check, not the user."""
        reference = TransientModel(_spec("h2-10"), 4).interdeparture_times(12)
        real_eig = np.linalg.eig

        def skewed(T):
            w, V = real_eig(T)
            return w + 1e-4, V

        monkeypatch.setattr(np.linalg, "eig", skewed)
        model = TransientModel(_spec("h2-10"), 4, propagation="spectral")
        self._assert_downgraded(model, "residual", reference)
        assert model.spectral_fallback.residuals  # probe residuals recorded

    def test_dim_cap(self, monkeypatch):
        """A level over the spectral cap declines before building anything."""
        import repro.laqt.operators as ops_mod

        reference = TransientModel(_spec("h2-10"), 4).interdeparture_times(12)
        monkeypatch.setattr(ops_mod, "SPECTRAL_DIM_CAP", 2)
        model = TransientModel(_spec("h2-10"), 4, propagation="spectral")
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            model.instrument = ins
            self._assert_downgraded(model, "dim-cap", reference)
        names = {sp.name for sp in ins.tracer.spans}
        assert "eig_decompose" in names
        assert "propagator" not in names

    def test_fallback_is_sticky_and_counted_once(self, monkeypatch):
        def boom(_T):
            raise np.linalg.LinAlgError("forced eig failure")

        monkeypatch.setattr(np.linalg, "eig", boom)
        model = TransientModel(_spec("exp"), 4, propagation="spectral")
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            model.instrument = ins
            with ins.tracer.span("host"):  # events attach to open spans
                model.interdeparture_times(10)
                model.interdeparture_times(10)  # second solve must not retry
        counter = ins.metrics.counter("repro_spectral_fallbacks_total")
        assert counter.value(reason="spectral-eig-failed") == 1.0
        events = [
            e for sp in ins.tracer.spans for e in sp.events
            if e.name == "spectral_fallback"
        ]
        assert len(events) == 1
        assert events[0].attrs["reason"] == "spectral-eig-failed"

    def test_healthy_model_keeps_spectral(self):
        model = TransientModel(_spec("h2-10"), 4, propagation="spectral")
        model.interdeparture_times(12)
        assert model.spectral_fallback is None
        assert model.effective_propagation == "spectral"

    def test_eig_decompose_span_emitted(self):
        model = TransientModel(_spec("h2-10"), 4, propagation="spectral")
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            model.instrument = ins
            model.makespan(12)
        spans = [sp for sp in ins.tracer.spans if sp.name == "eig_decompose"]
        assert len(spans) == 1
        assert spans[0].attrs["gap"] > 0.0
        assert spans[0].attrs["residual"] <= 1e-10


class TestResilientSpectral:
    """The ladder runs the model's default engine: no spectral knob."""

    def test_config_validates_propagation(self):
        from repro.resilience import ResilienceConfig

        with pytest.raises(TypeError, match="propagation"):
            ResilienceConfig(propagation="spectral")

    def test_spectral_solve_matches_plain(self):
        from repro.resilience import solve_resilient

        spec = _spec("h2-10")
        result = solve_resilient(spec, 4, 12)
        spectral = TransientModel(spec, 4, propagation="spectral")
        np.testing.assert_allclose(
            result.interdeparture_times, spectral.interdeparture_times(12),
            rtol=0.0, atol=1e-10,
        )
        assert spectral.spectral_fallback is None
        assert result.report.method == "exact"
        assert [a.rung for a in result.report.attempts] == ["exact"]


class TestValidateN:
    """_validate_N: bools are caller bugs, integral numpy scalars are fine."""

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True)])
    def test_rejects_bools(self, central_model, bad):
        with pytest.raises(ValueError, match="positive integer"):
            central_model.makespan(bad)

    @pytest.mark.parametrize(
        "good", [np.int64(5), np.int32(5), np.float64(5.0)]
    )
    def test_accepts_integral_numpy_scalars(self, central_model, good):
        assert central_model.makespan(good) == pytest.approx(
            central_model.makespan(5)
        )

    @pytest.mark.parametrize("bad", [5.5, np.float64(5.5), "5", None, 0, -3])
    def test_rejects_non_integral(self, central_model, bad):
        with pytest.raises(ValueError, match="positive integer"):
            central_model.interdeparture_times(bad)

    def test_resilient_solver_rejects_bool(self):
        from repro.resilience import ResilienceConfig, solve_resilient

        with pytest.raises(ValueError, match="positive integer"):
            solve_resilient(_spec("exp"), 3, True, ResilienceConfig())


class TestZeroMassEntrance:
    """_entrance_mix must refuse a vector with no positive mass."""

    @pytest.mark.parametrize(
        "x",
        [
            np.zeros(4),
            np.array([-0.2, -0.8, 0.0]),
            np.array([np.nan, np.nan]),
        ],
        ids=["all-zero", "all-negative", "nan"],
    )
    def test_raises_convergence_error(self, x):
        from repro.core.epochs import _entrance_mix

        with pytest.raises(ConvergenceError, match="no positive mass"):
            _entrance_mix(x)


class TestEpochDistributionDirect:
    """epoch_distribution evaluates one epoch, not all N vectors."""

    def test_does_not_materialize_all_vectors(self, central_h2_model):
        from repro.core import epoch_distribution

        model = central_h2_model

        class _Witness:
            def __getattr__(self, name):
                if name == "epoch_vectors":
                    raise AssertionError(
                        "epoch_distribution materialized all N vectors"
                    )
                return getattr(model, name)

        d = epoch_distribution(_Witness(), 40, 7)
        full = epoch_distribution(model, 40, 7)
        assert d.mean == pytest.approx(full.mean, rel=1e-12)
