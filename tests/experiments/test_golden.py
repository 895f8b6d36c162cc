"""Golden-value regression tests for the canonical experiments.

These pin the headline numbers of the reproduction (EXPERIMENTS.md) so an
accidental change to the canonical parameters, the fitting rules, or the
solver shows up immediately.  Tolerances are tight but not bit-exact:
they allow harmless numerical drift, not modeling drift.
"""

import pytest

from repro.clusters import central_cluster
from repro.core import TransientModel, solve_steady_state, speedup
from repro.distributions import Shape
from repro.experiments.params import BASE_APP, DEDICATED_APP, LIGHT_APP


class TestCanonicalApplications:
    def test_base_app_task_time(self):
        assert BASE_APP.task_time == pytest.approx(12.0)

    def test_dedicated_app_task_time(self):
        assert DEDICATED_APP.task_time == pytest.approx(12.0)

    def test_light_app_task_time(self):
        assert LIGHT_APP.task_time == pytest.approx(12.0)

    def test_base_components(self):
        assert BASE_APP.cpu_time == pytest.approx(4.0)
        assert BASE_APP.local_disk_time == pytest.approx(4.0)
        assert BASE_APP.comm_time == pytest.approx(1.0)
        assert BASE_APP.remote_disk_time == pytest.approx(3.0)


class TestGoldenValues:
    """Values recorded in EXPERIMENTS.md (rel tol 1e-3)."""

    def test_fig03_steady_levels(self):
        for scv, expect in ((1.0, 3.4164), (10.0, 3.7468), (50.0, 3.8803)):
            shapes = {} if scv == 1.0 else {"rdisk": Shape.hyperexp(scv)}
            model = TransientModel(central_cluster(BASE_APP, shapes), 5)
            t_ss = solve_steady_state(model).interdeparture_time
            assert t_ss == pytest.approx(expect, rel=1e-3)

    def test_fig03_makespan(self):
        model = TransientModel(
            central_cluster(BASE_APP, {"rdisk": Shape.hyperexp(10.0)}), 5
        )
        assert model.makespan(30) == pytest.approx(125.983, rel=1e-3)

    def test_fig14_speedups_at_k10(self):
        spec = central_cluster(DEDICATED_APP)
        model = TransientModel(spec, 10)
        assert speedup(spec, 20, model.makespan(20)) == pytest.approx(4.876, rel=2e-3)
        assert speedup(spec, 200, model.makespan(200)) == pytest.approx(8.600, rel=2e-3)

    def test_fig05_no_contention_level(self):
        model = TransientModel(
            central_cluster(LIGHT_APP, {"rdisk": Shape.hyperexp(50.0)}), 8
        )
        t_ss = solve_steady_state(model).interdeparture_time
        assert t_ss == pytest.approx(1.525, rel=5e-3)
