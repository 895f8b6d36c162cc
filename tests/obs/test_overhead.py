"""The disabled path must be free: bit-identical results, no obs work."""

import hashlib
import tracemalloc

import numpy as np

from repro.clusters import central_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.experiments.params import BASE_APP
from repro.obs import Instrumentation
from tests import oracle

#: sha256 over fig03's series (names + float64 bytes), recorded before the
#: observability layer existed.  Pinned on the solve recurrence of
#: ``tests/oracle.py`` — the bit-exact historical path, on its own COLAMD
#: factors; the default engine agrees to ~1e-15 but factors (I − P) in
#: natural order and steps differently, so its bits legitimately moved.
#: Any change here means something perturbed the numerics of the
#: historical path itself.
FIG03_BASELINE_SHA256 = (
    "eb2507a0b5e911acac09fd5f563791d80c7751a816d2f52dd0d5843f7bf848c6"
)


def _h2_model() -> TransientModel:
    return TransientModel(
        central_cluster(BASE_APP, {"rdisk": Shape.hyperexp(10.0)}), 5
    )


def _fig03_series_solve() -> dict[str, np.ndarray]:
    """Fig. 3's three curves through the historical solve recurrence."""
    labels = {1.0: "exp", 10.0: "H2(C2=10)", 50.0: "H2(C2=50)"}
    series = {}
    for scv, label in labels.items():
        spec = central_cluster(BASE_APP, {"rdisk": Shape.scv(scv)})
        series[label] = oracle.interdeparture_times(TransientModel(spec, 5), 30)
    return series


class TestBitIdentical:
    def test_fig03_hash_unchanged(self):
        series = _fig03_series_solve()
        h = hashlib.sha256()
        for name in sorted(series):
            h.update(name.encode())
            h.update(series[name].tobytes())
        assert h.hexdigest() == FIG03_BASELINE_SHA256

    def test_fig03_propagator_matches_solve(self):
        """The default propagator path agrees with the pinned solve path."""
        from repro.experiments import fig03

        r = fig03.run()
        for name, ref in _fig03_series_solve().items():
            np.testing.assert_allclose(
                r.series[name], ref, rtol=0.0, atol=1e-12
            )

    def test_instrumented_equals_plain(self):
        plain = _h2_model().interdeparture_times(30)
        ins = Instrumentation.enabled()
        with ins.activate():
            traced = _h2_model().interdeparture_times(30)
        assert np.array_equal(plain, traced)
        assert ins.tracer.open_spans == 0

    def test_explicit_instrument_equals_plain(self):
        plain = _h2_model().interdeparture_times(30)
        model = _h2_model()
        model.instrument = Instrumentation.enabled()
        assert np.array_equal(plain, model.interdeparture_times(30))


class TestNoDisabledOverhead:
    def test_no_obs_allocation_per_epoch(self):
        """With instrumentation off, the epoch loop must not touch obs code."""
        model = _h2_model()
        model.interdeparture_times(5)  # warm caches (levels, LU)
        tracemalloc.start()
        try:
            model2 = _h2_model()
            model2.interdeparture_times(30)
            snap = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_allocs = [
            stat
            for stat in snap.statistics("filename")
            if "/repro/obs/" in (stat.traceback[0].filename or "")
        ]
        assert obs_allocs == []

    def test_no_spans_recorded_when_inactive(self):
        from repro.obs import runtime as _rt

        assert _rt.ACTIVE is None
        model = _h2_model()
        model.interdeparture_times(10)
        assert model.instrument is None
