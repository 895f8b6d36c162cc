"""Every degradation-ladder rung is reachable and correctly reason-coded."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import TransientModel
from repro.resilience.budget import Budget
from repro.resilience.errors import SolverError
from repro.resilience.fallback import (
    LADDER,
    ResilienceConfig,
    ResilientSolver,
    solve_resilient,
)
from repro.resilience.faults import FaultPlan

K, N = 5, 12


@pytest.fixture(scope="module")
def plain_times(central_h2_spec):
    return TransientModel(central_h2_spec, K).interdeparture_times(N)


class TestExactRung:
    def test_happy_path_is_bit_identical(self, central_h2_spec, plain_times):
        res = solve_resilient(central_h2_spec, K, N)
        assert res.report.method == "exact"
        assert not res.report.degraded
        assert res.report.reason == "ok"
        assert np.array_equal(res.interdeparture_times, plain_times)
        assert res.makespan == float(plain_times.sum())

    def test_report_records_single_ok_attempt(self, central_h2_spec):
        res = solve_resilient(central_h2_spec, K, 6)
        assert [(a.rung, a.ok) for a in res.report.attempts] == [("exact", True)]
        assert res.report.predicted_dims is not None
        assert len(res.report.predicted_dims) == K + 1


class TestUntimedLadderIsThePlainModel:
    """Without a time cap the ladder arms no per-epoch hook: its exact
    rung is the plain model, converged tail included."""

    @pytest.mark.parametrize("k", [5, 8])
    @pytest.mark.parametrize("n", [30, 10**5])
    def test_bit_identical(self, central_spec, k, n):
        plain = TransientModel(central_spec, k).interdeparture_times(n)
        res = solve_resilient(central_spec, k, n)
        assert res.report.method == "exact"
        assert np.array_equal(res.interdeparture_times, plain)
        assert res.makespan == float(plain.sum())

    def test_no_epoch_hook_without_time_cap(self, central_h2_spec,
                                            monkeypatch):
        seen = []
        real = ResilientSolver._rung_model

        def spy(self, mode):
            model = real(self, mode)
            seen.append(model)
            return model

        monkeypatch.setattr(ResilientSolver, "_rung_model", spy)
        solve_resilient(central_h2_spec, K, N)
        solve_resilient(central_h2_spec, K, N,
                        ResilienceConfig(budget=Budget(max_seconds=60.0)))
        assert seen[0].instrument is None
        assert seen[1].instrument.on_epoch is not None


class TestRefineRung:
    def test_transient_nan_recovers_via_refinement(
        self, central_h2_spec, plain_times
    ):
        cfg = ResilienceConfig(faults=FaultPlan(nan_level=K, nan_mode="once"))
        res = solve_resilient(central_h2_spec, K, N, cfg)
        assert res.report.method == "refine"
        assert res.report.degraded
        assert res.report.reason == "numerical-health"
        assert res.report.attempts[0].rung == "exact"
        assert res.report.attempts[0].reason == "numerical-health"
        # refinement recomputes the poisoned solve exactly
        assert np.allclose(res.interdeparture_times, plain_times, rtol=1e-9)


class TestDenseRung:
    def test_persistent_nan_forces_dense(self, central_h2_spec, plain_times):
        cfg = ResilienceConfig(faults=FaultPlan(nan_level=K, nan_mode="always"))
        res = solve_resilient(central_h2_spec, K, N, cfg)
        assert res.report.method == "dense"
        assert res.report.degraded
        assert [a.ok for a in res.report.attempts] == [False, False, True]
        assert np.allclose(res.interdeparture_times, plain_times, rtol=1e-9)

    def test_near_singular_forces_dense(self, central_h2_spec, plain_times):
        cfg = ResilienceConfig(faults=FaultPlan(singular_level=4))
        res = solve_resilient(central_h2_spec, K, N, cfg)
        assert res.report.method == "dense"
        assert res.report.reason == "singular-level"
        assert np.allclose(res.interdeparture_times, plain_times, rtol=1e-9)

    def test_dense_cap_rejects_densification(self, central_h2_spec):
        cfg = ResilienceConfig(
            faults=FaultPlan(singular_level=4), dense_dim_cap=1
        )
        res = solve_resilient(central_h2_spec, K, N, cfg)
        dense_attempt = next(a for a in res.report.attempts if a.rung == "dense")
        assert dense_attempt.reason == "budget-exceeded"
        assert "cap" in dense_attempt.detail
        # every level-building rung is spent, so the ladder bottoms out
        # at the operator-free AMVA estimate
        assert res.report.method == "amva"


class TestEpochBudget:
    def test_epoch_budget_degrades_to_amva(self, central_h2_spec):
        cfg = ResilienceConfig(budget=Budget(max_epochs=10))
        res = solve_resilient(central_h2_spec, K, 30, cfg)
        assert res.report.method == "amva"
        assert res.report.reason == "budget-exceeded"
        # every level-building rung refused the same epoch cap
        assert [(a.rung, a.reason) for a in res.report.attempts[:-1]] == [
            (rung, "budget-exceeded") for rung in ("exact", "refine", "dense")
        ]
        assert res.interdeparture_times.shape == (30,)
        assert np.all(res.interdeparture_times > 0)

    def test_small_workload_within_budget_stays_exact(self, central_h2_spec):
        cfg = ResilienceConfig(budget=Budget(max_epochs=10))
        res = solve_resilient(central_h2_spec, K, 8, cfg)
        assert res.report.method == "exact"


class TestAmvaRung:
    def test_starved_byte_budget_reaches_amva(self, central_h2_spec):
        cfg = ResilienceConfig(faults=FaultPlan(starve_budget=True))
        res = solve_resilient(central_h2_spec, K, 30, cfg)
        assert res.report.method == "amva"
        assert res.report.reason == "budget-exceeded"
        # every level-building rung was rejected by the same budget gate
        for attempt in res.report.attempts[:-1]:
            assert attempt.reason == "budget-exceeded"
        assert res.makespan > 0
        # AMVA is a steady-state estimate: within a factor-2 sanity band
        exact = TransientModel(central_h2_spec, K).makespan(30)
        assert 0.5 * exact < res.makespan < 2.0 * exact


class TestLadderMechanics:
    def test_exhausted_ladder_raises_with_report(self, central_h2_spec):
        cfg = ResilienceConfig(
            ladder=("exact",), faults=FaultPlan(nan_level=K, nan_mode="always")
        )
        with pytest.raises(SolverError) as ei:
            solve_resilient(central_h2_spec, K, N, cfg)
        report = ei.value.report
        assert report.method == "none"
        assert report.degraded
        assert [a.rung for a in report.attempts] == ["exact"]

    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError):
            ResilienceConfig(ladder=("exact", "prayer"))

    def test_custom_ladder_order_is_respected(self, central_h2_spec):
        cfg = ResilienceConfig(ladder=("amva",))
        res = solve_resilient(central_h2_spec, K, 10, cfg)
        assert res.report.method == "amva"
        assert res.report.degraded

    def test_full_ladder_constant(self):
        assert LADDER == ("exact", "refine", "dense", "amva")

    def test_solver_reusable_across_workloads(self, central_h2_spec):
        solver = ResilientSolver(central_h2_spec, K)
        a = solver.solve(4)
        b = solver.solve(9)
        assert a.interdeparture_times.shape == (4,)
        assert b.interdeparture_times.shape == (9,)

    def test_time_budget_exhaustion_is_structured(self, central_h2_spec):
        cfg = ResilienceConfig(budget=Budget(max_seconds=-1.0))
        # even the AMVA rung checks the clock: the whole ladder fails fast
        with pytest.raises(SolverError):
            solve_resilient(central_h2_spec, K, 6, cfg)

    def test_summary_mentions_method_and_cause(self, central_h2_spec):
        cfg = ResilienceConfig(faults=FaultPlan(singular_level=4))
        res = solve_resilient(central_h2_spec, K, 6, cfg)
        text = res.report.summary()
        assert "dense" in text
        assert "singular-level" in text

    @pytest.mark.parametrize("mode", ["exact", "dense"])
    def test_rung_model_accounts_for_shared_levels(self, central_h2_spec, mode):
        """A rung model's wrapped levels answer the cache and B_k surfaces
        with the base model's operators; it adds only its own entrance
        vectors and refill walk."""
        solver = ResilientSolver(central_h2_spec, K)
        rung = solver._rung_model(mode)
        rung.interdeparture_times(N)
        base = solver._base_model()
        assert rung.cache_info()["levels"] == base.cache_info()["levels"]
        assert base.cache_info()["walks"] == []
        (walk,) = rung.cache_info()["walks"]
        assert walk["level"] == K and walk["steps"] == N - K
        entrance = sum(x.nbytes for x in rung._entrance.values())
        own = entrance + walk["bytes"]
        assert rung.cached_bytes() == base.cached_bytes() + own > own
        for k in range(1, K + 1):
            assert np.array_equal(rung.level_B(k), base.level_B(k))


class TestPointDeadline:
    """A sweep point's deadline leaves the ladder instead of failing a rung."""

    def test_deadline_in_a_rung_times_the_point_out(
        self, central_h2_spec, plain_times, monkeypatch
    ):
        import time

        from repro.experiments.executor import PointOutcome, run_attempts
        from repro.resilience.retry import RetryPolicy

        calls = []
        real = ResilientSolver._run_exactish

        def first_call_hangs(self, *args):
            calls.append(args[1])
            if len(calls) == 1:
                time.sleep(30.0)
            return real(self, *args)

        monkeypatch.setattr(ResilientSolver, "_run_exactish", first_call_hangs)
        out = PointOutcome(index=0)
        ok, res = run_attempts(
            solve_resilient, (central_h2_spec, K, N), out,
            RetryPolicy(max_attempts=2, base_delay=0.0, timeout=0.2),
            None, mode="inline",
        )
        assert ok
        # Attempt 1 timed out in the exact rung; no cheaper rung ran on
        # its lapsed time.  The fallback attempt solved exactly.
        assert out.failures == ["attempt 1: timeout"]
        assert calls == ["exact", "exact"]
        assert res.report.method == "exact"
        assert np.array_equal(res.interdeparture_times, plain_times)

    def test_ladder_reraises_point_timeout(self, central_h2_spec, monkeypatch):
        from repro.resilience.errors import PointTimeoutError

        def deadline(self, *args):
            raise PointTimeoutError("point deadline")

        monkeypatch.setattr(ResilientSolver, "_run_exactish", deadline)
        with pytest.raises(PointTimeoutError):
            solve_resilient(central_h2_spec, K, N)
