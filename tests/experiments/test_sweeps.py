"""The sweep machinery behind the figure modules."""

import numpy as np
import pytest

from repro.experiments._sweeps import (
    build_cluster,
    interdeparture_experiment,
    shape_for_scv,
)
from repro.experiments.params import BASE_APP, paper_app


class TestBuildCluster:
    def test_kinds(self):
        assert build_cluster("central", BASE_APP, 4).n_stations == 4
        assert build_cluster("distributed", BASE_APP, 4).n_stations == 6

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown cluster kind"):
            build_cluster("mesh", BASE_APP, 4)


class TestShapeForScv:
    @pytest.mark.parametrize("scv", [1.0 / 3.0, 0.5, 1.0, 2.0, 50.0])
    def test_hits_target(self, scv):
        d = shape_for_scv(scv).with_mean(3.0)
        assert d.mean == pytest.approx(3.0)
        assert d.scv == pytest.approx(scv, rel=1e-6)


class TestExperimentPlumbing:
    def test_meta_and_labels(self):
        r = interdeparture_experiment(
            experiment="probe",
            kind="central",
            role="shared",
            K=3,
            N=8,
            scvs=(1.0, 1.0 / 3.0, 5.0),
            app=BASE_APP,
        )
        assert set(r.series) == {"exp", "E3", "H2(C2=5)"}
        assert r.meta["station"] == "rdisk"
        assert r.x.shape == (8,)

    def test_paper_app_keeps_task_time(self):
        for y in (0.5, 1.5, 3.0):
            assert paper_app(remote_time=y).task_time == pytest.approx(12.0)


class TestExtensionExperiments:
    def test_ext_powertail_small(self):
        from repro.experiments import ext_powertail

        r = ext_powertail.run(K=3, N=10, ms=(1, 4))
        assert r.series["error_pct"][0] == 0.0
        assert r.series["error_pct"][1] > 0.0

    def test_ext_scheduler_small(self):
        from repro.experiments import ext_scheduler

        r = ext_scheduler.run(K=3, N=10, overheads=(0.05, 0.5))
        assert r.series["makespan"][1] > r.series["makespan"][0]

    def test_ext_allocation_small(self):
        from repro.experiments import ext_allocation

        r = ext_allocation.run(K=3, N=9, skews=(1.0, 3.0))
        assert np.all(r.series["load_balanced"] <= r.series["uniform"] + 1e-9)

    def test_ext_grid_small(self):
        from repro.experiments import ext_grid

        r = ext_grid.run(sites=2, K=3, N=9, localities=(1.0, 0.5))
        assert r.series["wan_util"][0] == 0.0
        assert r.series["makespan"][1] > r.series["makespan"][0]

    @pytest.mark.parametrize("name, kwargs", [
        ("ext_grid", dict(sites=2, K=3, N=9, localities=(1.0, 0.5))),
        ("ext_scheduler", dict(K=3, N=10, overheads=(0.05, 0.5))),
    ])
    def test_one_epoch_walk_per_point(self, monkeypatch, name, kwargs):
        """Speedup reuses the point's makespan instead of solving again."""
        import importlib

        from repro.core.transient import TransientModel

        walks = []
        real = TransientModel._epoch_recurrence

        def counted(self, *args, **kw):
            walks.append(self.K)
            return real(self, *args, **kw)

        monkeypatch.setattr(TransientModel, "_epoch_recurrence", counted)
        r = importlib.import_module(f"repro.experiments.{name}").run(**kwargs)
        assert len(walks) == len(r.x)
