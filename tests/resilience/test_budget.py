"""Budget prediction and enforcement: D_RP(k) forecasting without assembly."""

from __future__ import annotations

import pytest

from repro.clusters import ApplicationModel, central_cluster, distributed_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.resilience.budget import (
    Budget,
    BudgetClock,
    enforce_budget,
    predict_level_dims,
    predict_peak_bytes,
)
from repro.resilience.errors import BudgetExceededError, SolverError
from repro.resilience.fallback import (
    ResilienceConfig,
    ResilientSolver,
    solve_resilient,
)


class TestPrediction:
    @pytest.mark.parametrize("K", [1, 3, 5])
    def test_matches_enumeration_central(self, central_spec, K):
        model = TransientModel(central_spec, K)
        assert predict_level_dims(central_spec, K) == [
            model.level_dim(k) for k in range(K + 1)
        ]

    def test_matches_enumeration_central_h2(self, central_h2_spec):
        model = TransientModel(central_h2_spec, 4)
        assert predict_level_dims(central_h2_spec, 4) == [
            model.level_dim(k) for k in range(5)
        ]

    def test_matches_enumeration_distributed(self, distributed_spec):
        model = TransientModel(distributed_spec, 4)
        assert predict_level_dims(distributed_spec, 4) == [
            model.level_dim(k) for k in range(5)
        ]

    def test_matches_enumeration_distributed_h2_disks(self):
        app = ApplicationModel()
        spec = distributed_cluster(app, 3, shapes={"disk": Shape.hyperexp(10.0)})
        model = TransientModel(spec, 3)
        assert predict_level_dims(spec, 3) == [
            model.level_dim(k) for k in range(4)
        ]

    def test_level_zero_is_one(self, central_spec):
        assert predict_level_dims(central_spec, 0) == [1]

    def test_bytes_estimate_positive_and_monotone(self, central_spec):
        small = predict_peak_bytes(central_spec, predict_level_dims(central_spec, 2))
        large = predict_peak_bytes(central_spec, predict_level_dims(central_spec, 6))
        assert 0 < small < large


class TestEnforcement:
    def test_unlimited_budget_passes(self, central_spec):
        dims = enforce_budget(central_spec, 5, Budget())
        assert len(dims) == 6

    def test_none_budget_passes(self, central_spec):
        assert enforce_budget(central_spec, 3, None)

    def test_per_level_state_cap(self, central_spec):
        with pytest.raises(BudgetExceededError) as ei:
            enforce_budget(central_spec, 5, Budget(max_states=3))
        assert ei.value.budget_kind == "states"
        assert ei.value.needed > 3
        assert ei.value.level is not None

    def test_total_state_cap(self, central_spec):
        with pytest.raises(BudgetExceededError) as ei:
            enforce_budget(central_spec, 5, Budget(max_total_states=10))
        assert ei.value.budget_kind == "states"

    def test_byte_cap(self, central_spec):
        with pytest.raises(BudgetExceededError) as ei:
            enforce_budget(central_spec, 5, Budget(max_bytes=1))
        assert ei.value.budget_kind == "bytes"
        assert ei.value.limit == 1

    def test_rejection_happens_before_model_construction(self, central_spec):
        # The ladder enforces the budget before it builds a model (no Ξ_k
        # is enumerated).
        cfg = ResilienceConfig(budget=Budget(max_states=3), ladder=("exact",))
        solver = ResilientSolver(central_spec, 5, cfg)
        with pytest.raises(SolverError) as ei:
            solver.solve(5)
        assert ei.value.report.reason == "budget-exceeded"
        assert solver._base is None

    def test_model_accepts_generous_budget(self, central_spec):
        cfg = ResilienceConfig(budget=Budget(max_states=10**6), ladder=("exact",))
        res = solve_resilient(central_spec, 3, 5, cfg)
        assert res.report.method == "exact"
        assert res.makespan > 0


class TestClock:
    def test_unlimited_clock_never_raises(self):
        clock = BudgetClock(max_seconds=None)
        clock.check("anything")

    def test_spent_clock_raises(self):
        clock = BudgetClock(max_seconds=-1.0)  # already expired
        with pytest.raises(BudgetExceededError) as ei:
            clock.check("epoch 3")
        assert ei.value.budget_kind == "seconds"
        assert "epoch 3" in str(ei.value)

    def test_budget_start_clock_carries_cap(self):
        clock = Budget(max_seconds=123.0).start_clock()
        assert clock.max_seconds == 123.0
        clock.check()  # fresh clock, nowhere near the cap
