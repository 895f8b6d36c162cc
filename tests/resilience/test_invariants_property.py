"""Property tests: epoch state vectors stay stochastic across random specs.

For randomly drawn central and distributed cluster applications
(including non-exponential shapes), every epoch state vector the
degradation ladder's guarded exact rung touches must be non-negative with
unit mass — the ``check_stochastic`` guard never fires beyond its soft
renormalization band on healthy models.
"""

from __future__ import annotations

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.clusters import ApplicationModel, central_cluster, distributed_cluster
from repro.core import TransientModel
from repro.distributions import Shape
from repro.obs import Instrumentation
from repro.resilience.fallback import ResilienceConfig, solve_resilient

MASS_TOL = 1e-9
EXACT = ResilienceConfig(ladder=("exact",))

apps = st.builds(
    ApplicationModel,
    compute_fraction=st.floats(0.2, 0.8),
    local_time=st.floats(1.0, 16.0),
    remote_time=st.floats(0.5, 6.0),
    comm_factor=st.floats(0.1, 1.0),
    cycles=st.floats(2.0, 20.0),
    remote_fraction=st.floats(0.1, 0.9),
)

shapes = st.sampled_from(
    [None, {"rdisk": Shape.hyperexp(4.0)}, {"cpu": Shape.scv(0.5)}]
)

SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def collect_epoch_vectors(spec, K, N):
    """Solve through the exact rung, recording every epoch entry vector."""
    seen = []
    hook = Instrumentation(
        on_epoch=lambda j, k, x: seen.append((j, k, np.asarray(x)))
    )
    with hook.activate():
        res = solve_resilient(spec, K, N, EXACT)
    assert res.report.method == "exact"
    return res.interdeparture_times, seen


@given(app=apps, shapes=shapes, K=st.sampled_from([2, 3]), N=st.integers(1, 8))
@SETTINGS
def test_central_epoch_vectors_remain_stochastic(app, shapes, K, N):
    times, seen = collect_epoch_vectors(central_cluster(app, shapes), K, N)
    assert np.all(np.isfinite(times)) and np.all(times > 0)
    assert len(seen) == N  # one hook call per epoch across both loops
    for j, k, x in seen:
        assert np.all(x >= 0.0), f"negative mass at epoch {j} (level {k})"
        assert x.sum() == pytest.approx(1.0, abs=MASS_TOL)


@given(app=apps, K=st.sampled_from([2, 3]), N=st.integers(1, 6))
@SETTINGS
def test_distributed_epoch_vectors_remain_stochastic(app, K, N):
    times, seen = collect_epoch_vectors(distributed_cluster(app, K), K, N)
    assert np.all(np.isfinite(times)) and np.all(times > 0)
    for j, k, x in seen:
        assert np.all(x >= 0.0)
        assert x.sum() == pytest.approx(1.0, abs=MASS_TOL)


@given(app=apps, N=st.integers(1, 8))
@SETTINGS
def test_guards_do_not_change_results_on_healthy_models(app, N):
    """Guard wrapping is observation, not perturbation: results bit-match."""
    spec = central_cluster(app)
    plain = TransientModel(spec, 3).interdeparture_times(N)
    guarded = solve_resilient(spec, 3, N, EXACT).interdeparture_times
    assert np.array_equal(plain, guarded)
