"""BENCH_transient.json emitter: median-of-5 transient-solver timings.

Profiles the two headline workload classes through the observability
layer (:func:`repro.obs.profile.profile_spec`) and merges the records
into ``benchmarks/results/BENCH_transient.json`` — the repo's
perf-trajectory file, schema ``repro-bench-transient/1``.  The CLI
(``repro profile``) writes the same format, so trends can be compared
across machines and commits.

Workloads:

* ``fig03_central_k5``  — central cluster, shared disk C² = 10, K=5, N=30
  (the paper's Figure 3 configuration, D(5) = 91);
* ``fig04_central_k8``  — the same application at K=8, N=60
  (Figure 4's scale, D(8) = 285);
* ``fig03_n10k_propagator`` / ``fig03_n10k_spectral`` — the fig03 class
  pushed to N = 10⁴, once per epoch backend.  Both are N-free in their
  refill now (the default engine stops at the converged tail), so the
  N=10⁴ gate is :func:`test_n10k_default_engine_beats_stepped_walk`: the
  default engine against the O(N) solve walk of ``tests/oracle.py``, a
  *relative* property (≥10x), because absolute wall times drift across
  machines and the ratio does not;
* ``fig06_distributed_k5`` — Figure 6's distributed cluster, disks
  C² = 10, K=5, N=100 (D(5) = 2668), the largest level a figure steps
  through its natural-order LU; CI gates the factorize and epoch stages
  so that path cannot quietly slow down.
"""

from __future__ import annotations

import json
import statistics
import time

import pytest

from repro.clusters import ApplicationModel, central_cluster, distributed_cluster
from repro.distributions import Shape
from repro.core import TransientModel
from repro.obs.profile import profile_spec, validate_bench, write_bench
from tests import oracle

REPEATS = 5

#: Workload size of the N-free refill gate, and the speedup it must show.
GATE_N = 10_000
GATE_SPEEDUP = 10.0


def _spec(kind: str = "central", K: int = 5):
    if kind == "distributed":
        return distributed_cluster(ApplicationModel(), K,
                                   shapes={"disk": Shape.scv(10.0)})
    return central_cluster(ApplicationModel(), {"rdisk": Shape.scv(10.0)})


@pytest.mark.parametrize(
    "name, kind, K, N, propagation, top_dim",
    [
        ("fig03_central_k5", "central", 5, 30, "propagator", 91),
        ("fig04_central_k8", "central", 8, 60, "propagator", 285),
        ("fig03_n10k_propagator", "central", 5, 10_000, "propagator", 91),
        ("fig03_n10k_spectral", "central", 5, 10_000, "spectral", 91),
        ("fig06_distributed_k5", "distributed", 5, 100, "propagator", 2668),
    ],
    ids=["fig03_k5", "fig04_k8", "n10k_propagator", "n10k_spectral",
         "fig06_k5"],
)
def test_bench_transient(results_dir, record_text, name, kind, K, N,
                         propagation, top_dim):
    result = profile_spec(
        _spec(kind, K), K, N, repeats=REPEATS, name=name,
        propagation=propagation,
    )

    # Sanity: the spans must account for (nearly) all of the wall time,
    # and the solve must reproduce the known makespan regime.
    assert result.coverage > 0.90, f"span coverage {result.coverage:.1%}"
    assert result.level_dims[-1] == top_dim
    assert result.makespan > 0.0

    path = write_bench(
        results_dir / "BENCH_transient.json",
        [result.bench_record()],
        source="benchmarks/test_bench_transient.py",
    )
    doc = validate_bench(path)
    assert any(w["name"] == name for w in doc["workloads"])
    record_text(f"bench_transient_{name}", result.format_table())


def test_bench_file_is_wellformed(results_dir):
    """After the emitters ran, the merged file must pass the CI gate."""
    path = results_dir / "BENCH_transient.json"
    if not path.exists():
        pytest.skip("emitters did not run in this session")
    doc = validate_bench(path)
    names = {w["name"] for w in doc["workloads"]}
    assert {"fig03_central_k5", "fig04_central_k8",
            "fig06_distributed_k5"} <= names
    # Round-trip: the file is plain JSON, stable under re-serialization.
    assert json.loads(path.read_text())["schema"] == "repro-bench-transient/1"


def _cold_seconds(solve, repeats: int = 3) -> float:
    """Median wall seconds of ``solve(model)`` on a fresh fig03 model."""
    walls = []
    for _ in range(repeats):
        model = TransientModel(_spec(), 5)
        t0 = time.perf_counter()
        solve(model)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def test_n10k_default_engine_beats_stepped_walk(record_text):
    """fig03 at N=10⁴: the default engine is ≥10x the O(N) refill walk.

    Both sides start from a fresh model, so each pays its own level
    builds; the walk is the per-epoch solve recurrence of
    ``tests/oracle.py``, which steps all N − K refill epochs.
    """
    fast_span = TransientModel(_spec(), 5).makespan(GATE_N)
    slow_span = oracle.makespan(TransientModel(_spec(), 5), GATE_N)
    assert fast_span == pytest.approx(slow_span, rel=1e-10)
    fast = _cold_seconds(lambda m: m.makespan(GATE_N))
    slow = _cold_seconds(lambda m: oracle.makespan(m, GATE_N))
    record_text(
        "bench_transient_n10k_gate",
        f"fig03 N={GATE_N}: oracle walk {slow * 1e3:.1f} ms, default "
        f"engine {fast * 1e3:.2f} ms, speedup {slow / fast:.1f}x "
        f"(gate {GATE_SPEEDUP:g}x)",
    )
    assert slow / fast >= GATE_SPEEDUP, (
        f"default engine N={GATE_N} speedup {slow / fast:.1f}x under the "
        f"{GATE_SPEEDUP:g}x bar"
    )
