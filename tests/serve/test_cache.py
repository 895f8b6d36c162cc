"""Cache correctness: warm answers are cold answers, keys are portable.

The contract under test (docs/API.md "Solver as a service"):

* a warm hit returns answers **bit-identical** to a cold build — the
  fig03 H2 curve through the cache hashes to the same bytes as the
  direct model;
* eviction respects the byte budget, drops least-recently-used first,
  and never evicts the entry just used;
* fingerprints are content-addressed and host-independent — a separate
  process derives the identical key for the identical question, and any
  parameter change moves the key;
* callers racing on one fingerprint share a **single** build and get the
  same model object.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.clusters import central_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.experiments.params import BASE_APP
from repro.serve import ModelCache, model_fingerprint
from repro.serve.cache import DEFAULT_CACHE_BYTES


def _h2_spec(scv: float = 10.0):
    return central_cluster(BASE_APP, {"rdisk": Shape.scv(scv)})


class TestBitIdenticalHits:
    def test_cached_model_is_cold_model_bits(self):
        """Warm-hit interdeparture bytes hash equal to a cold build's."""
        cache = ModelCache()
        spec = _h2_spec()
        warm = cache.get_or_build(spec, 5)
        warm.interdeparture_times(30)  # materialize lazy surfaces
        again = cache.get_or_build(spec, 5)
        assert again is warm  # the hit returns the same object

        cold = TransientModel(_h2_spec(), 5)
        h_warm, h_cold = hashlib.sha256(), hashlib.sha256()
        h_warm.update(again.interdeparture_times(30).tobytes())
        h_cold.update(cold.interdeparture_times(30).tobytes())
        assert h_warm.hexdigest() == h_cold.hexdigest()

    def test_fig03_series_through_cache(self):
        """All three fig03 curves, warm and cold, byte for byte."""
        cache = ModelCache()
        for scv in (1.0, 10.0, 50.0):
            cold = TransientModel(_h2_spec(scv), 5).interdeparture_times(30)
            cache.get_or_build(_h2_spec(scv), 5)  # prime
            warm = cache.get_or_build(_h2_spec(scv), 5)
            assert np.array_equal(warm.interdeparture_times(30), cold)
        assert cache.stats()["misses"] == 3
        assert cache.stats()["hits"] == 3


class TestFingerprints:
    def test_every_parameter_moves_the_key(self):
        spec = _h2_spec()
        base = model_fingerprint(spec, 5)
        assert model_fingerprint(spec, 5) == base  # deterministic
        assert model_fingerprint(spec, 6) != base
        assert model_fingerprint(_h2_spec(50.0), 5) != base
        assert model_fingerprint(spec, 5, version="0.0.0") != base

    def test_stable_across_processes(self):
        """A fresh interpreter derives the identical key (no hash
        randomization, no id()/repr leakage)."""
        spec = _h2_spec()
        here = model_fingerprint(spec, 5)
        code = (
            "from repro.clusters import central_cluster\n"
            "from repro.distributions import Shape\n"
            "from repro.experiments.params import BASE_APP\n"
            "from repro.serve import model_fingerprint\n"
            "spec = central_cluster(BASE_APP, {'rdisk': Shape.scv(10.0)})\n"
            "print(model_fingerprint(spec, 5))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == here

    def test_survives_wire_round_trip(self):
        """JSON round-trip of the spec does not move the key."""
        from repro.network.serialize import spec_from_dict, spec_to_dict

        spec = _h2_spec()
        again = spec_from_dict(spec_to_dict(spec))
        assert model_fingerprint(again, 5) == model_fingerprint(spec, 5)


class TestEviction:
    def test_tiny_budget_keeps_only_latest(self):
        cache = ModelCache(max_bytes=1)  # nothing fits, but last stays
        for K in (3, 4, 5):
            model = cache.get_or_build(_h2_spec(), K)
            model.makespan(10)
            cache.settle(model_fingerprint(_h2_spec(), K))
        assert len(cache) == 1  # the just-used entry is never evicted
        stats = cache.stats()
        assert stats["evictions"] == 2
        assert stats["entries"][0]["K"] == 5  # most recent survived

    def test_lru_order_evicts_oldest_first(self):
        cache = ModelCache()
        fps = []
        for K in (3, 4, 5):
            cache.get_or_build(_h2_spec(), K).makespan(5)
            fp = model_fingerprint(_h2_spec(), K)
            cache.settle(fp)  # record real resident bytes
            fps.append(fp)
        cache.get_or_build(_h2_spec(), 3)  # refresh K=3 → K=4 is now LRU
        cache.max_bytes = 1
        cache.settle(fps[0])
        assert fps[1] not in cache
        assert fps[0] in cache  # the refreshed entry survived
        assert len(cache) == 1

    def test_settle_remeasures_lazy_growth(self):
        """Resident bytes grow as queries warm the lazy surfaces."""
        cache = ModelCache()
        fp = model_fingerprint(_h2_spec(), 5)
        model = cache.get_or_build(_h2_spec(), 5)
        before = cache.stats()["entries"][0]["bytes"]
        model.interdeparture_times(30)  # builds LUs and the refill walk
        cache.settle(fp)
        after = cache.stats()["entries"][0]["bytes"]
        assert after > before
        assert after == model.cached_bytes()

    def test_bad_budget_rejected(self):
        with pytest.raises(ValueError, match="max_bytes"):
            ModelCache(max_bytes=0)


class TestSingleBuildUnderRace:
    def test_racing_callers_share_one_build(self):
        """N threads miss the same fingerprint; exactly one build runs."""
        builds = 0
        build_gate = threading.Event()
        orig_init = TransientModel.__init__

        def counting_init(self, *a, **kw):
            nonlocal builds
            builds += 1
            build_gate.wait(5.0)  # hold the build so every racer queues
            orig_init(self, *a, **kw)

        cache = ModelCache()
        spec = _h2_spec()
        got = []
        errors = []

        def racer():
            try:
                got.append(cache.get_or_build(spec, 5))
            except BaseException as exc:  # pragma: no cover - diagnostics
                errors.append(exc)

        threads = [threading.Thread(target=racer) for _ in range(6)]
        try:
            TransientModel.__init__ = counting_init
            for t in threads:
                t.start()
            build_gate.set()
            for t in threads:
                t.join(30.0)
        finally:
            TransientModel.__init__ = orig_init
        assert not errors
        assert builds == 1
        assert len(got) == 6
        assert all(m is got[0] for m in got)  # one shared object
        assert cache.stats()["misses"] == 1

    def test_asyncio_callers_race_one_fingerprint_at_byte_budget(self):
        """The daemon's shape of the race: N asyncio tasks offload the
        same cold fingerprint to executor threads while the cache sits at
        a byte budget that fits nothing.  The build latch must still
        collapse them to ONE build, and budget-pressure eviction must not
        tear the entry out from under the racers mid-flight."""
        import asyncio

        builds = 0
        build_gate = threading.Event()
        orig_init = TransientModel.__init__

        def counting_init(self, *a, **kw):
            nonlocal builds
            builds += 1
            build_gate.wait(5.0)
            orig_init(self, *a, **kw)

        cache = ModelCache(max_bytes=1)  # over budget from the first entry
        spec = _h2_spec()

        async def scenario():
            loop = asyncio.get_running_loop()
            racers = [
                loop.run_in_executor(None, cache.get_or_build, spec, 5)
                for _ in range(8)
            ]
            await asyncio.sleep(0.2)  # all eight are parked on the latch
            build_gate.set()
            return await asyncio.gather(*racers)

        try:
            TransientModel.__init__ = counting_init
            got = asyncio.run(scenario())
        finally:
            TransientModel.__init__ = orig_init
        assert builds == 1
        assert all(m is got[0] for m in got)
        # latch waiters return the winner's model without a table hit, so
        # only `misses` is deterministic here; the hit/waiter split is
        # executor-timing dependent.
        assert cache.stats()["misses"] == 1
        assert len(cache) == 1  # just-used entry survives the budget

    def test_two_fingerprints_race_at_tight_budget_without_deadlock(self):
        """Two distinct fingerprints built concurrently under a budget
        that holds only one: both cohorts complete (no latch/evict
        deadlock) and each sees its own model."""
        import asyncio

        cache = ModelCache(max_bytes=1)
        spec = _h2_spec()

        async def scenario():
            loop = asyncio.get_running_loop()
            racers = [
                loop.run_in_executor(None, cache.get_or_build, spec, K)
                for K in (4, 5) for _ in range(4)
            ]
            return await asyncio.wait_for(asyncio.gather(*racers), 60.0)

        got = asyncio.run(scenario())
        assert [m.K for m in got] == [4, 4, 4, 4, 5, 5, 5, 5]
        assert cache.stats()["misses"] == 2

    def test_failed_build_raises_in_every_waiter_and_caches_nothing(self):
        cache = ModelCache()
        spec = _h2_spec()
        orig_init = TransientModel.__init__

        def failing_init(self, *a, **kw):
            raise RuntimeError("injected build failure")

        try:
            TransientModel.__init__ = failing_init
            with pytest.raises(RuntimeError, match="injected"):
                cache.get_or_build(spec, 5)
        finally:
            TransientModel.__init__ = orig_init
        assert len(cache) == 0
        # the latch is gone: the next call rebuilds cleanly
        assert cache.get_or_build(spec, 5).K == 5


class TestMetrics:
    def test_counters_flow_through_ambient_instrumentation(self):
        from repro.obs import Instrumentation

        ins = Instrumentation.enabled()
        cache = ModelCache()
        with ins.activate():
            cache.get_or_build(_h2_spec(), 5)
            cache.get_or_build(_h2_spec(), 5)
        doc = ins.metrics.to_dict()
        assert doc["repro_cache_misses_total"]["series"][0]["value"] == 1.0
        assert doc["repro_cache_hits_total"]["series"][0]["value"] == 1.0
        names = [s.name for s in ins.tracer.spans]
        assert "cache_build" in names
        assert "cache_hit" in names

    def test_gauges_race_build_and_settle_across_threads(self, monkeypatch):
        """Two threads build and settle under metrics at a tiny budget.

        Reading an entry's size here releases the GIL, so a gauge export
        that summed the entries outside the lock would see the other
        thread evict mid-iteration ("OrderedDict mutated during
        iteration", an HTTP 500 under ``repro serve --threads 2``).
        """
        import time

        import repro.serve.cache as cache_mod
        from repro.obs import Instrumentation, default_registry

        class _SlowSizeEntry(cache_mod._Entry):
            @property
            def bytes(self):
                time.sleep(1e-4)
                return self._bytes

            @bytes.setter
            def bytes(self, value):
                self._bytes = value

        monkeypatch.setattr(cache_mod, "_Entry", _SlowSizeEntry)
        cache = ModelCache(max_bytes=1)
        spec = _h2_spec()
        errors: list[BaseException] = []

        def worker(tag: str) -> None:
            try:
                for i in range(40):
                    fp = f"{tag}-{i}"
                    cache.get_or_build(spec, 1, fingerprint=fp)
                    cache.settle(fp)
            except Exception as exc:  # reported by the assert below
                errors.append(exc)

        ins = Instrumentation(metrics=default_registry())
        with ins.activate():
            threads = [threading.Thread(target=worker, args=(t,))
                       for t in ("a", "b")]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert cache.stats()["misses"] == 80
        doc = ins.metrics.to_dict()
        assert doc["repro_cache_entries"]["series"][0]["value"] >= 1.0

    def test_default_budget_is_sane(self):
        assert DEFAULT_CACHE_BYTES >= 64 << 20
