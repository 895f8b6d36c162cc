"""Ablation: LU column ordering of ``(I − P_k)``, COLAMD against NATURAL.

Every level steps every epoch through a sparse LU, factored in the
level's natural state order.  This ablation measures both orderings on
the top two levels of every figure class: factor time, LU fill
(``L.nnz + U.nnz``) and the transposed solve ``x ↦ x (I − P)⁻¹`` an
epoch step runs.  It records the table; the solver's choice of natural
order rests on it.  COLAMD survives only in the solve oracle of
``tests/oracle.py``, which the fig03 hash pin was recorded on.

Timings are medians of repeated runs on whatever machine runs the suite;
only the fill counts are deterministic, and the fig06 top level's fill is
the one figure asserted.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.core import TransientModel
from repro.experiments._sweeps import build_cluster, shape_for_scv
from repro.experiments.params import BASE_APP, DEDICATED_APP

#: (figure, kind, swept station, K, C², app): one per figure class
CLASSES = [
    ("fig03", "central", "rdisk", 5, 10.0, BASE_APP),
    ("fig04", "central", "rdisk", 8, 10.0, BASE_APP),
    ("fig06", "distributed", "disk", 5, 10.0, BASE_APP),
    ("fig10", "distributed", "cpu", 5, 1.0 / 3.0, DEDICATED_APP),
    ("fig11", "central", "cpu", 8, 1.0 / 3.0, DEDICATED_APP),
    ("fig12", "central", "cpu", 5, 1.0 / 3.0, DEDICATED_APP),
    ("fig14", "central", "cpu", 10, 1.0, DEDICATED_APP),
]
ORDERINGS = ("COLAMD", "NATURAL")
FACTOR_REPEATS = 3
SOLVE_REPEATS = 20


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _measure(A: sp.csc_matrix, permc_spec: str) -> tuple[float, int, float, np.ndarray]:
    """(factor s, LU nnz, transposed-solve s, solution of a fixed probe)."""
    factor_s = _median_seconds(lambda: spla.splu(A, permc_spec=permc_spec),
                               FACTOR_REPEATS)
    lu = spla.splu(A, permc_spec=permc_spec)
    x = np.full(A.shape[0], 1.0 / A.shape[0])
    solve_s = _median_seconds(lambda: lu.solve(x, trans="T"), SOLVE_REPEATS)
    return factor_s, int(lu.L.nnz + lu.U.nnz), solve_s, lu.solve(x, trans="T")


def test_ordering_ablation(record_text):
    header = (f"{'class':<6} {'k':>3} {'dim':>5} "
              f"{'ordering':<8} {'factor_ms':>10} {'lu_nnz':>9} "
              f"{'solveT_ms':>10}")
    lines = [header]
    fill: dict[tuple[str, int], dict[str, int]] = {}
    for fig, kind, station, K, scv, app in CLASSES:
        spec = build_cluster(kind, app, K, {station: shape_for_scv(scv)})
        model = TransientModel(spec, K)
        for k in (K, K - 1):
            ops = model.level(k)
            A = (sp.identity(ops.dim, format="csc") - ops.P.tocsc()).tocsc()
            answers = []
            for order in ORDERINGS:
                factor_s, nnz, solve_s, y = _measure(A, order)
                answers.append(y)
                fill.setdefault((fig, k), {})[order] = nnz
                lines.append(
                    f"{fig:<6} {k:>3} {ops.dim:>5} {order:<8} "
                    f"{factor_s * 1e3:>10.3f} {nnz:>9d} {solve_s * 1e3:>10.4f}"
                )
            # Both orderings solve the same system.
            np.testing.assert_allclose(answers[0], answers[1],
                                       rtol=1e-10, atol=1e-12)
    record_text("ablation_ordering", "\n".join(lines))
    top = fill[("fig06", 5)]
    assert top["NATURAL"] < top["COLAMD"], top
