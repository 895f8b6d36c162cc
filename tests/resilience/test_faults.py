"""The fault-injection harness itself, and the satellite error translations."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.laqt.operators import LevelOperators
from repro.resilience.errors import ConvergenceError, SingularLevelError
from repro.resilience.faults import FaultPlan, FaultyLevel, apply_faults
from repro._util.linalg import stationary_left_vector


class TestFaultPlan:
    def test_inactive_by_default(self):
        assert not FaultPlan().active

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(nan_mode="sometimes")
        with pytest.raises(ValueError):
            FaultPlan(singular_mode="kinda")

    def test_apply_faults_passthrough(self, central_model):
        ops = central_model.level(2)
        assert apply_faults(ops, None) is ops
        assert apply_faults(ops, FaultPlan()) is ops
        # armed, but for a different level: untouched
        assert apply_faults(ops, FaultPlan(nan_level=5)) is ops


class TestNaNInjection:
    def test_once_poisons_first_call_only(self, central_model):
        faulty = FaultyLevel(central_model.level(3), FaultPlan(nan_level=3))
        x = central_model.entrance_vector(3)
        first = faulty.apply_Y(x)
        second = faulty.apply_Y(x)
        assert np.isnan(first).any()
        assert np.isfinite(second).all()

    def test_always_poisons_every_call_and_the_lu(self, central_model):
        plan = FaultPlan(nan_level=3, nan_mode="always")
        faulty = FaultyLevel(central_model.level(3), plan)
        x = central_model.entrance_vector(3)
        assert np.isnan(faulty.apply_Y(x)).any()
        assert np.isnan(faulty.apply_Y(x)).any()
        # refinement re-solves through .lu — it must see poison too
        assert np.isnan(faulty.lu.solve(np.ones(faulty.dim))).any()


class TestSingularInjection:
    def test_near_mode_raises_on_lu_but_leaves_matrix_clean(self, central_model):
        faulty = FaultyLevel(central_model.level(2), FaultPlan(singular_level=2))
        with pytest.raises(SingularLevelError) as ei:
            faulty.lu
        assert ei.value.level == 2
        assert ei.value.stations
        # matrix untouched: dense partial pivoting would still succeed
        A = np.eye(faulty.dim) - faulty.P.toarray()
        assert np.linalg.matrix_rank(A) == faulty.dim

    def test_exact_mode_truly_breaks_the_factorization(self, central_model):
        plan = FaultPlan(singular_level=2, singular_mode="exact")
        faulty = FaultyLevel(central_model.level(2), plan)
        with pytest.raises(SingularLevelError):
            faulty.lu


class TestOperatorsTranslation:
    """Satellite: scipy's bare 'Factor is exactly singular' becomes structured."""

    def test_singular_level_error_names_level_dim_station(self, central_model):
        raw = central_model.level(2)
        P = raw.P.tolil(copy=True)
        P[0, :] = 0.0
        P[0, 0] = 1.0  # state 0 absorbing → row 0 of (I − P) is zero
        broken = LevelOperators(
            k=raw.k, space=raw.space, rates=raw.rates,
            P=sp.csr_matrix(P), Q=raw.Q, R=raw.R,
        )
        with pytest.raises(SingularLevelError) as ei:
            broken.lu
        err = ei.value
        assert err.level == 2
        assert err.dim == raw.dim
        assert err.stations, "offending station specs must be named"
        spec_names = {a.station.name for a in raw.space.automata}
        assert set(err.stations) <= spec_names
        assert "singular" in str(err).lower()


class TestStationaryVectorGuards:
    """Satellite: stationary_left_vector no longer divides by zero mass."""

    def test_zero_mass_raises_structured_error_immediately(self):
        calls = []

        def vanish(x):
            calls.append(1)
            return np.zeros_like(x)

        with pytest.raises(ConvergenceError) as ei:
            stationary_left_vector(vanish, 4)
        assert len(calls) == 1  # detected at the first step, not after 200k
        assert ei.value.iterations == 1
        assert "mass" in str(ei.value)

    def test_nonfinite_iterate_raises(self):
        def poison(x):
            y = x.copy()
            y[0] = np.nan
            return y

        with pytest.raises(ConvergenceError):
            stationary_left_vector(poison, 4)

    def test_stall_raises_with_residual_trace(self):
        flip = np.array([[0.0, 1.0], [1.0, 0.0]])  # period-2: never settles

        with pytest.raises(ConvergenceError) as ei:
            stationary_left_vector(
                lambda x: x @ flip, 2, x0=np.array([0.9, 0.1]), max_iter=57
            )
        err = ei.value
        assert err.iterations == 57
        assert err.residuals, "residual trace must be attached"
        assert len(err.residuals) <= 32
        assert err.residuals[-1] == pytest.approx(0.8)

    def test_healthy_iteration_still_converges(self):
        T = np.array([[0.5, 0.5], [0.25, 0.75]])
        pi = stationary_left_vector(lambda x: x @ T, 2)
        assert pi @ T == pytest.approx(pi)
        assert pi.sum() == pytest.approx(1.0)


class TestShardFaultPlan:
    """SweepFaultPlan's claim faults (shard drills): armed by claim COUNT,
    which is worker-local and exact (point→worker assignment is racy; the
    local claim counter is not)."""

    def test_inactive_by_default(self):
        from repro.resilience.faults import SweepFaultPlan

        plan = SweepFaultPlan()
        assert not plan.active
        assert not plan.dies_now(1)
        assert not plan.stalls_now(1)

    def test_each_knob_arms_the_plan(self):
        from repro.resilience.faults import SweepFaultPlan

        assert SweepFaultPlan(die_after_claims=1).active
        assert SweepFaultPlan(stall_heartbeat_after=2).active
        assert SweepFaultPlan(duplicate_claim=True).active
        assert SweepFaultPlan(tear_segment=True).active

    def test_die_fires_exactly_at_the_threshold(self):
        from repro.resilience.faults import SweepFaultPlan

        plan = SweepFaultPlan(die_after_claims=2)
        assert not plan.dies_now(1)
        assert plan.dies_now(2)
        # claims=3 is unreachable in practice (the process died at 2);
        # the trigger is an exact match on the local claim counter.
        assert not plan.dies_now(3)

    def test_stall_fires_at_the_threshold(self):
        from repro.resilience.faults import SweepFaultPlan

        plan = SweepFaultPlan(stall_heartbeat_after=1, stall_seconds=0.5)
        assert not plan.stalls_now(0)
        assert plan.stalls_now(1)
        assert plan.stall_seconds == 0.5


class TestDrillParse:
    """``SweepFaultPlan.parse`` — the one reader of ``--drill`` strings."""

    @pytest.mark.parametrize("text, fields", [
        ("die-after-claim", {"die_after_claims": 1}),
        ("stale-heartbeat@3", {"stall_heartbeat_after": 3}),
        ("hang@2", {"hang_point": 2}),
        ("hang-always@0", {"hang_point": 0, "hang_attempts": None}),
        ("fail@0", {"fail_point": 0}),
        ("die-after-claim@2", {"die_after_claims": 2}),
        ("stale-heartbeat", {"stall_heartbeat_after": 1}),
        ("duplicate-claim", {"duplicate_claim": True}),
        ("torn-segment", {"tear_segment": True}),
    ])
    def test_each_kind_builds_its_triggers(self, text, fields):
        from repro.resilience.faults import SweepFaultPlan

        plan = SweepFaultPlan.parse(text)
        assert plan == SweepFaultPlan(**fields)
        assert plan.active
        assert plan.claims_armed == ("claim" in text or "heartbeat" in text
                                     or "segment" in text)

    def test_table_covers_every_kind(self):
        from repro.resilience.faults import SWEEP_DRILLS

        assert set(SWEEP_DRILLS) == {
            "hang", "hang-always", "fail",
            "die-after-claim", "stale-heartbeat", "duplicate-claim",
            "torn-segment",
        }

    @pytest.mark.parametrize("text", [
        "crash", "crash@", "crash@x", "crash@-1", "die-after-claim@0",
        "duplicate-claim@0", "bogus@1",
    ])
    def test_nonsense_raises(self, text):
        from repro.resilience.faults import SweepFaultPlan

        with pytest.raises(ValueError):
            SweepFaultPlan.parse(text)
