"""Metrics registry: families, exporters, label-vocabulary stability."""

import json

import pytest

from repro.obs import CATALOG, MetricsRegistry, default_registry
from repro.obs.metrics import DEFAULT_BUCKETS


class TestCounter:
    def test_inc_and_labels(self):
        reg = MetricsRegistry()
        c = reg.counter("hits_total")
        c.inc()
        c.inc(2.0, kind="tau")
        assert c.value() == 1.0
        assert c.value(kind="tau") == 2.0

    def test_negative_rejected(self):
        c = MetricsRegistry().counter("hits_total")
        with pytest.raises(ValueError):
            c.inc(-1.0)

    def test_label_order_irrelevant(self):
        c = MetricsRegistry().counter("c")
        c.inc(a="1", b="2")
        c.inc(b="2", a="1")
        assert c.value(a="1", b="2") == 2.0


class TestGauge:
    def test_last_write_wins(self):
        g = MetricsRegistry().gauge("dim")
        g.set(5.0, k="3")
        g.set(7.0, k="3")
        assert g.value(k="3") == 7.0


class TestHistogram:
    def test_cumulative_buckets(self):
        h = MetricsRegistry().histogram("h", buckets=[0.1, 1.0, 10.0])
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(55.55)
        assert snap["buckets"] == {0.1: 1, 1.0: 2, 10.0: 3}

    def test_default_buckets_monotone(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestHistogramQuantile:
    def test_interpolates_inside_bucket(self):
        h = MetricsRegistry().histogram("h", buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        # rank 2 of 4 sits halfway through the (1, 2] bucket (cum 1→3).
        assert h.quantile(0.5) == pytest.approx(1.5)
        assert h.quantile(0.75) == pytest.approx(2.0)
        assert h.quantile(0.0) == pytest.approx(0.0)

    def test_empty_is_nan(self):
        import math

        h = MetricsRegistry().histogram("h", buckets=[1.0])
        assert math.isnan(h.quantile(0.5))

    def test_beyond_last_bucket_clamps(self):
        h = MetricsRegistry().histogram("h", buckets=[1.0, 2.0])
        h.observe(50.0)
        assert h.quantile(0.99) == 2.0

    def test_out_of_range_rejected(self):
        h = MetricsRegistry().histogram("h", buckets=[1.0])
        with pytest.raises(ValueError):
            h.quantile(1.5)


class TestRegistry:
    def test_idempotent_registration(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self):
        # Regression: the shard heartbeat thread counts lease renewals
        # while the map thread observes point latencies concurrently.
        import threading

        reg = MetricsRegistry()
        c = reg.counter("hits_total")
        h = reg.histogram("h_seconds", buckets=[0.5, 1.0])
        n, threads = 5000, 8

        def hammer():
            for _ in range(n):
                c.inc(kind="x")
                h.observe(0.25)

        pool = [threading.Thread(target=hammer) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert c.value(kind="x") == float(n * threads)
        snap = h.snapshot()
        assert snap["count"] == n * threads
        assert snap["buckets"][0.5] == n * threads


class TestPickling:
    def test_registry_survives_pool_round_trip(self):
        # Pool workers return their registry via pickle; the per-family
        # locks are process-local and must not break that.
        import pickle

        reg = MetricsRegistry()
        reg.counter("c_total").inc(2, kind="x")
        reg.histogram("h", buckets=[1.0]).observe(0.5)
        back = pickle.loads(pickle.dumps(reg))
        assert back.to_dict() == reg.to_dict()
        back.counter("c_total").inc(kind="x")  # lock was recreated
        assert back.counter("c_total").value(kind="x") == 3.0


class TestMergeAndRoundTrip:
    def test_merge_accumulates_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for reg, values in ((a, (0.05, 0.5)), (b, (0.5, 5.0))):
            h = reg.histogram("h", buckets=[0.1, 1.0, 10.0])
            for v in values:
                h.observe(v, mode="shard")
        a.merge(b)
        snap = a.histogram("h", buckets=[0.1, 1.0, 10.0]).snapshot(mode="shard")
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(6.05)
        assert snap["buckets"] == {0.1: 1, 1.0: 3, 10.0: 4}

    def test_merge_seeds_missing_series(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.histogram("h", buckets=[1.0]).observe(0.5, k="v")
        a.merge(b)
        assert a.histogram("h", buckets=[1.0]).snapshot(k="v")["count"] == 1

    def test_from_dict_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(3, kind="x")
        reg.gauge("g").set(7.5)
        h = reg.histogram("h", buckets=[0.1, 1.0])
        h.observe(0.05, mode="shard")
        h.observe(0.5, mode="shard")
        back = MetricsRegistry.from_dict(reg.to_dict())
        assert back.to_dict() == reg.to_dict()
        assert back.to_prometheus() == reg.to_prometheus()

    def test_rehydrated_snapshots_merge_like_live_ones(self):
        # The fleet aggregation path: each worker ships to_dict, the
        # reader rehydrates and folds them together.
        workers = []
        for values in ((0.05, 0.2), (0.4,)):
            reg = MetricsRegistry()
            h = reg.histogram("h", buckets=[0.1, 1.0])
            for v in values:
                h.observe(v)
            workers.append(reg.to_dict())
        fleet = MetricsRegistry()
        for doc in workers:
            fleet.merge(MetricsRegistry.from_dict(doc))
        snap = fleet.histogram("h", buckets=[0.1, 1.0]).snapshot()
        assert snap["count"] == 3
        assert snap["buckets"] == {0.1: 1, 1.0: 3}


class TestJsonExporter:
    def test_schema(self):
        reg = default_registry()
        reg.counter("repro_epochs_solved_total").inc(3)
        reg.histogram("repro_epoch_seconds").observe(0.002)
        doc = json.loads(reg.to_json())
        fam = doc["repro_epochs_solved_total"]
        assert fam["kind"] == "counter"
        assert fam["series"] == [{"labels": {}, "value": 3.0}]
        hist = doc["repro_epoch_seconds"]
        assert hist["kind"] == "histogram"
        (series,) = hist["series"]
        assert series["count"] == 1
        assert series["buckets"]["0.0025"] == 1

    def test_every_catalog_family_present(self):
        doc = json.loads(default_registry().to_json())
        for _, name, _ in CATALOG:
            assert name in doc


class TestPrometheusExporter:
    def test_help_and_type_lines(self):
        text = default_registry().to_prometheus()
        assert "# TYPE repro_epochs_solved_total counter" in text
        assert "# TYPE repro_level_dim gauge" in text
        assert "# TYPE repro_epoch_seconds histogram" in text
        assert ("# HELP repro_guard_trips_total "
                "Health-guard interventions, by site and kind") in text

    def test_counter_series_with_labels(self):
        reg = MetricsRegistry()
        reg.counter("repro_sparse_solves_total").inc(4, kind="tau")
        text = reg.to_prometheus()
        assert 'repro_sparse_solves_total{kind="tau"} 4' in text

    def test_histogram_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", buckets=[0.1, 1.0])
        h.observe(0.05)
        h.observe(5.0)
        lines = reg.to_prometheus().splitlines()
        assert 'h_seconds_bucket{le="0.1"} 1' in lines
        assert 'h_seconds_bucket{le="1"} 1' in lines
        assert 'h_seconds_bucket{le="+Inf"} 2' in lines
        assert "h_seconds_sum 5.05" in lines
        assert "h_seconds_count 2" in lines

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(reason='say "hi"\nnow')
        text = reg.to_prometheus()
        assert 'c{reason="say \\"hi\\"\\nnow"} 1' in text


class TestLabelVocabularyStability:
    """Dashboards key on these values; they must track the source enums."""

    def test_reason_codes_match_resilience_errors(self):
        from repro.resilience import errors

        expected = {
            errors.SolverError.reason,
            errors.SingularLevelError.reason,
            errors.ConvergenceError.reason,
            errors.NumericalHealthError.reason,
            errors.BudgetExceededError.reason,
        }
        assert expected == {
            "solver-error", "singular-level", "no-convergence",
            "numerical-health", "budget-exceeded",
        }

    def test_rung_names_match_ladder(self):
        from repro.resilience.fallback import LADDER

        assert LADDER == ("exact", "refine", "dense", "amva")

    def test_catalog_names_are_prometheus_safe(self):
        for kind, name, help_text in CATALOG:
            assert name.startswith("repro_")
            assert name.replace("_", "").isalnum()
            assert kind in {"counter", "gauge", "histogram"}
            assert help_text
