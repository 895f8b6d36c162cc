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
  pushed to N = 10⁴, once per epoch backend.  The pair exists so CI can
  gate the spectral engine's N-free refill as a *relative* property
  (``check_bench_regression.py --min-speedup``, ≥10x): absolute wall
  times drift across machines, the ratio does not;
* ``fig06_distributed_k5`` — Figure 6's distributed cluster, disks
  C² = 10, K=5, N=100 (D(5) = 2668, over the dense propagator cap).  Its
  top level steps through a natural-order LU; CI gates the factorize
  and epoch stages so that path cannot quietly slow down.
"""

from __future__ import annotations

import json

import pytest

from repro.clusters import ApplicationModel, central_cluster, distributed_cluster
from repro.distributions import Shape
from repro.obs.profile import profile_spec, validate_bench, write_bench

REPEATS = 5


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
    by_name = {w["name"]: w for w in doc["workloads"]}
    if {"fig03_n10k_propagator", "fig03_n10k_spectral"} <= names:
        slow = by_name["fig03_n10k_propagator"]["wall_seconds"]["median"]
        fast = by_name["fig03_n10k_spectral"]["wall_seconds"]["median"]
        assert slow / fast >= 10.0, (
            f"spectral N=10k speedup {slow / fast:.1f}x under the 10x bar"
        )
    # Round-trip: the file is plain JSON, stable under re-serialization.
    assert json.loads(path.read_text())["schema"] == "repro-bench-transient/1"
