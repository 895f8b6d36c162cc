"""End-to-end wiring: spans and metrics emitted by each solver layer."""

import numpy as np
import pytest

from repro.clusters import central_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.experiments.params import BASE_APP
from repro.obs import Instrumentation
from tests import oracle


def _model(K=5, **kwargs):
    return TransientModel(
        central_cluster(BASE_APP, {"rdisk": Shape.hyperexp(10.0)}), K, **kwargs
    )


@pytest.fixture
def traced_run():
    ins = Instrumentation.enabled(measure_rss=False)
    with ins.activate():
        _model().interdeparture_times(30)
    return ins


class TestTransientSpans:
    def test_stage_counts(self, traced_run):
        totals = traced_run.tracer.stage_totals()
        assert totals["build_level"]["count"] == 5
        assert totals["entrance_vector"]["count"] == 1
        assert totals["epoch"]["count"] == 30
        assert totals["factorize"]["count"] == 5

    def test_build_level_attrs(self, traced_run):
        builds = {
            sp.attrs["k"]: sp
            for sp in traced_run.tracer.spans
            if sp.name == "build_level"
        }
        assert set(builds) == {1, 2, 3, 4, 5}
        top = builds[5]
        assert top.attrs["dim"] == 91
        assert top.attrs["nnz"] > 0

    def test_epoch_phases(self, traced_run):
        phases = [
            sp.attrs["phase"]
            for sp in traced_run.tracer.spans
            if sp.name == "epoch"
        ]
        assert phases == ["refill"] * 25 + ["drain"] * 5

    def test_factorize_nested_under_pipeline(self, traced_run):
        for sp in traced_run.tracer.spans:
            if sp.name == "factorize":
                assert sp.parent is not None


class TestTransientMetrics:
    def test_counters(self, traced_run):
        m = traced_run.metrics
        assert m.counter("repro_epochs_solved_total").value() == 30
        assert m.counter("repro_levels_built_total").value() == 5
        assert m.counter("repro_factorizations_total").value() == 5
        # tau per level, one LU solve per stepped epoch: the 25 refill
        # steps of the top level and the drain steps k = 5..2
        solves = m.counter("repro_sparse_solves_total")
        assert solves.value(kind="tau") == 5
        assert solves.value(kind="apply_YR") == 25
        assert solves.value(kind="apply_Y") == 4
        # the default engine builds no Y/YR propagator at any level
        assert m.counter("repro_propagators_built_total").labels_seen() == []

    def test_counters_warm_rerun(self):
        """A warm query reads the model's refill walk: only the drain
        solves are stepped again."""
        model = _model()
        model.interdeparture_times(30)
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            model.interdeparture_times(30)
        m = ins.metrics
        assert m.counter("repro_epochs_solved_total").value() == 30
        solves = m.counter("repro_sparse_solves_total")
        assert solves.value(kind="apply_YR") == 0
        assert solves.value(kind="apply_Y") == 4
        assert m.counter("repro_factorizations_total").value() == 0

    def test_gauges_labelled_by_level(self, traced_run):
        g = traced_run.metrics.gauge("repro_level_dim")
        assert g.value(k="5") == 91.0
        assert g.value(k="1") == 5.0

    def test_epoch_histogram(self, traced_run):
        snap = traced_run.metrics.histogram("repro_epoch_seconds").snapshot()
        assert snap["count"] == 30
        assert snap["sum"] > 0.0

    def test_convergence_distance_gauge(self, traced_run):
        # ‖p_i − p_{i+1}‖∞ of the last refill epoch: finite, and small
        # once the entrance vectors have settled toward the fixed point.
        g = traced_run.metrics.gauge("repro_epoch_convergence_distance")
        value = g.value()
        assert np.isfinite(value)
        assert 0.0 <= value < 1.0


class TestInstrumentParameter:
    def test_constructor_callback(self):
        seen = []
        ins = Instrumentation(on_epoch=lambda j, k, x: seen.append((j, k)))
        spec = central_cluster(BASE_APP)
        TransientModel(spec, 3, instrument=ins).interdeparture_times(6)
        assert len(seen) == 6
        assert seen[0] == (0, 3)
        assert seen[-1] == (5, 1)

    def test_bare_callable_normalized(self):
        model = _model(3)
        model.instrument = lambda j, k, x: None
        assert isinstance(model.instrument, Instrumentation)

    def test_callback_receives_state_vector(self):
        dims = []
        ins = Instrumentation(on_epoch=lambda j, k, x: dims.append(x.shape[0]))
        model = _model(3)
        model.instrument = ins
        model.interdeparture_times(4)
        assert dims == [
            model.level_dim(3), model.level_dim(3),
            model.level_dim(2), model.level_dim(1),
        ]

    def test_explicit_and_ambient_callbacks_both_run(self):
        order = []
        model = _model(3)
        model.instrument = Instrumentation(
            on_epoch=lambda j, k, x: order.append("explicit")
        )
        ambient = Instrumentation(on_epoch=lambda j, k, x: order.append("ambient"))
        with ambient.activate():
            model.interdeparture_times(2)
        assert order == ["explicit", "ambient"] * 2


class TestResilienceWiring:
    def test_ladder_rung_metrics(self):
        from repro.resilience import ResilienceConfig, solve_resilient

        spec = central_cluster(BASE_APP)
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            result = solve_resilient(spec, 3, 6, ResilienceConfig())
        assert result.makespan > 0
        rung = ins.metrics.counter("repro_ladder_rung_total")
        assert rung.value(rung="exact", outcome="ok", reason="ok") == 1.0
        names = [sp.name for sp in ins.tracer.spans]
        assert "fallback_rung" in names

    def test_guard_trip_counter_and_event(self):
        from repro.resilience.guards import check_nonnegative

        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            with ins.tracer.span("host"):
                out = check_nonnegative(
                    np.array([1.0, -1e-14]), where="tau", level=2
                )
        assert out[1] == 0.0
        trips = ins.metrics.counter("repro_guard_trips_total")
        assert trips.value(where="tau", kind="clip") == 1.0
        (host,) = ins.tracer.spans
        assert [e.name for e in host.events] == ["guard_trip"]
        assert host.events[0].attrs["kind"] == "clip"


class TestSimulationWiring:
    def test_replication_spans_and_counter(self):
        from repro.simulation import simulate_study

        spec = central_cluster(BASE_APP)
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            simulate_study(spec, 3, 5, reps=4, seed=1)
        reps = [
            sp for sp in ins.tracer.spans if sp.name == "simulate_replication"
        ]
        assert len(reps) == 4
        assert ins.metrics.counter("repro_replications_total").value() == 4.0
        snap = ins.metrics.histogram("repro_replication_seconds").snapshot()
        assert snap["count"] == 4
