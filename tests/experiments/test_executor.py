"""SweepExecutor: determinism across jobs, telemetry round-trip, pickling."""

import os
import pickle
import tempfile

import numpy as np
import pytest

from repro.distributions import Shape
from repro.experiments.executor import SweepExecutor, latency_summary
from repro.obs import Instrumentation


def _square(x):
    return x * x


def _tagged(tag, n):
    return np.full(n, tag, dtype=float)


class TestLatencySummary:
    def test_exact_order_statistics(self):
        # 1..100ms: the order statistics are exact, not bucket estimates.
        secs = [k / 1000.0 for k in range(1, 101)]
        lat = latency_summary(secs)
        assert lat["count"] == 100
        assert lat["p50"] == pytest.approx(0.0505)
        assert lat["p95"] == pytest.approx(0.09505)
        assert lat["p99"] == pytest.approx(0.09901)
        assert lat["max"] == pytest.approx(0.1)
        assert lat["mean"] == pytest.approx(sum(secs) / 100)

    def test_single_sample(self):
        lat = latency_summary([0.25])
        assert lat["p50"] == lat["p99"] == lat["max"] == 0.25

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            latency_summary([])

    def test_sweep_report_latency(self):
        ex = SweepExecutor(1)
        ex.map(_square, [(i,) for i in range(4)])
        lat = ex.report.latency()
        assert lat is not None and lat["count"] == 4
        assert ex.report.to_dict()["latency"] == lat
        assert all(p.seconds > 0.0 for p in ex.report.points)


class TestExecutorBasics:
    def test_jobs_must_be_positive_int(self):
        with pytest.raises(ValueError):
            SweepExecutor(0)
        with pytest.raises(ValueError):
            SweepExecutor(-2)

    def test_inline_map_order(self):
        out = SweepExecutor(1).map(_square, [(i,) for i in range(6)])
        assert out == [i * i for i in range(6)]

    def test_single_call_stays_inline_even_with_jobs(self):
        assert SweepExecutor(4).map(_square, [(7,)]) == [49]

    def test_pool_matches_inline(self):
        calls = [(i, 4) for i in range(5)]
        before = set(os.listdir(tempfile.gettempdir()))
        inline = SweepExecutor(1).map(_tagged, calls)
        pooled = SweepExecutor(2).map(_tagged, calls)
        assert len(inline) == len(pooled)
        for a, b in zip(inline, pooled):
            assert np.array_equal(a, b)
        # no helper left running, no private namespace left behind
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        after = set(os.listdir(tempfile.gettempdir()))
        assert not [d for d in after - before if d.startswith("repro-sweep-")]


class TestFigureDeterminism:
    def test_fig03_identical_at_any_jobs(self):
        from repro.experiments import fig03

        serial = fig03.run(executor=SweepExecutor(jobs=1))
        pooled = fig03.run(executor=SweepExecutor(jobs=2))
        assert sorted(serial.series) == sorted(pooled.series)
        for name in serial.series:
            assert np.array_equal(serial.series[name], pooled.series[name])

    def test_fig14_identical_at_any_jobs(self):
        from repro.experiments import fig14

        serial = fig14.run(executor=SweepExecutor(jobs=1))
        pooled = fig14.run(executor=SweepExecutor(jobs=3))
        for name in serial.series:
            assert np.array_equal(serial.series[name], pooled.series[name])

    def test_fig03_identical_at_jobs_3(self):
        from repro.experiments import fig03

        serial = fig03.run(executor=SweepExecutor(jobs=1))
        local = fig03.run(executor=SweepExecutor(jobs=3))
        for name in serial.series:
            assert np.array_equal(serial.series[name], local.series[name])

    def test_fig14_identical_at_jobs_2(self):
        from repro.experiments import fig14

        serial = fig14.run(executor=SweepExecutor(jobs=1))
        local = fig14.run(executor=SweepExecutor(jobs=2))
        for name in serial.series:
            assert np.array_equal(serial.series[name], local.series[name])

    def test_ext_grid_identical_at_jobs_2(self):
        from repro.experiments import ext_grid

        kw = dict(K=3, N=12, localities=(1.0, 0.6, 0.2))
        serial = ext_grid.run(**kw, executor=SweepExecutor(jobs=1))
        ex = SweepExecutor(jobs=2)
        local = ext_grid.run(**kw, executor=ex)
        assert ex.report.label == "ext_grid"
        assert ex.report.total == 3
        assert sorted(serial.series) == sorted(local.series)
        for name in serial.series:
            assert np.array_equal(serial.series[name], local.series[name])


class TestTelemetryRoundTrip:
    def test_inline_sweep_spans_and_counter(self):
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            SweepExecutor(1).map(_square, [(1,), (2,), (3,)])
        spans = [sp for sp in ins.tracer.spans if sp.name == "sweep_point"]
        assert len(spans) == 3
        assert all(sp.attrs["mode"] == "inline" for sp in spans)
        counter = ins.metrics.counter("repro_sweep_points_total")
        assert counter.value(mode="inline") == 3

    def test_pool_grafts_spans_and_merges_metrics(self):
        # Local shard helpers ship their spans and metrics back to the
        # parent, which grafts and merges them with its own.
        ins = Instrumentation.enabled(measure_rss=False)
        with ins.activate():
            SweepExecutor(2).map(_square, [(1,), (2,), (3,), (4,)])
        spans = [sp for sp in ins.tracer.spans if sp.name == "sweep_point"]
        assert len(spans) == 4
        assert all(sp.attrs["mode"] == "shard" for sp in spans)
        assert ins.tracer.open_spans == 0
        counter = ins.metrics.counter("repro_sweep_points_total")
        assert counter.value(mode="shard") == 4


class TestShapePickling:
    @pytest.mark.parametrize(
        "shape",
        [
            Shape.exponential(),
            Shape.erlang(3),
            Shape.hyperexp(10.0),
            Shape.scv(0.25),
            Shape.scv(50.0),
            Shape.power_tail(1.4),
        ],
        ids=["exp", "erlang", "h2", "scv-low", "scv-high", "power-tail"],
    )
    def test_round_trip_preserves_distribution(self, shape):
        clone = pickle.loads(pickle.dumps(shape))
        assert clone.name == shape.name
        assert clone.params == shape.params
        a, b = shape.with_mean(3.0), clone.with_mean(3.0)
        np.testing.assert_allclose(a.entry, b.entry)
        np.testing.assert_allclose(a.rates, b.rates)
