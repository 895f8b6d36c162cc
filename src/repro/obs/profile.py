"""Profiling driver: instrumented solves, cost tables, BENCH emitters.

:func:`profile_spec` runs the transient pipeline end to end under a
fully-armed :class:`~repro.obs.instrument.Instrumentation` — ``repeats``
times, each from a cold :class:`~repro.core.transient.TransientModel`, so
operator assembly is measured, not amortized away — and returns a
:class:`ProfileResult` that can

* render the per-stage cost table (:meth:`ProfileResult.format_table`),
* export the span tree as JSONL and the metrics as Prometheus text,
* produce a ``BENCH_transient.json`` workload record
  (:meth:`ProfileResult.bench_record`) — the repo's perf-trajectory
  format, emitted both by ``repro profile`` and by
  ``benchmarks/test_bench_transient.py``.

The module is imported lazily (CLI and benchmarks only); the solver
itself never depends on it.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.instrument import Instrumentation

__all__ = [
    "BENCH_SCHEMA",
    "ProfileResult",
    "profile_spec",
    "validate_bench",
    "write_bench",
]

#: Schema tag of BENCH_transient.json (bump on incompatible changes).
BENCH_SCHEMA = "repro-bench-transient/1"


@dataclass
class ProfileResult:
    """Everything one profiled workload produced."""

    name: str
    K: int
    N: int
    repeats: int
    #: end-to-end wall seconds of each repeat (measured outside the spans)
    run_walls: list[float]
    #: makespan of the final run (identical across runs by construction)
    makespan: float
    #: state-space dimensions [D(0), …, D(K)]
    level_dims: list[int]
    instrumentation: Instrumentation
    meta: dict[str, Any] = field(default_factory=dict)
    #: sweep reports collected during the profiled run (per-point status,
    #: attempts, shard provenance) — empty when no supervised sweep ran
    sweep_reports: list[Any] = field(default_factory=list)

    # -- aggregation ---------------------------------------------------
    @property
    def end_to_end(self) -> float:
        return sum(self.run_walls)

    @property
    def span_total(self) -> float:
        """Summed wall of the root spans (one per repeat)."""
        return self.instrumentation.tracer.total_wall()

    @property
    def coverage(self) -> float:
        """Fraction of end-to-end wall time accounted for by spans."""
        if self.end_to_end <= 0.0:
            return 1.0
        return self.span_total / self.end_to_end

    def stage_rows(self) -> list[dict[str, Any]]:
        """Per-stage totals across all repeats, heaviest self-time first."""
        totals = self.instrumentation.tracer.stage_totals()
        rows = []
        for name, agg in totals.items():
            rows.append(
                {
                    "stage": name,
                    "count": int(agg["count"]),
                    "wall": agg["wall"],
                    "self": agg["self"],
                    "share": agg["self"] / self.end_to_end
                    if self.end_to_end > 0 else 0.0,
                }
            )
        rows.sort(key=lambda r: r["self"], reverse=True)
        return rows

    def _per_run_stage_self(self) -> dict[str, list[float]]:
        """Self wall per stage, split by repeat (root-span subtree)."""
        tracer = self.instrumentation.tracer
        spans = tracer.spans
        roots: dict[int, int] = {}

        def root_of(i: int) -> int:
            j = i
            while spans[j].parent is not None:
                j = spans[j].parent
            roots[i] = j
            return j

        child_wall: dict[int, float] = {}
        for sp in spans:
            if sp.closed and sp.parent is not None:
                child_wall[sp.parent] = child_wall.get(sp.parent, 0.0) + sp.wall
        run_index = {
            i: n for n, i in enumerate(
                i for i, sp in enumerate(spans) if sp.parent is None
            )
        }
        out: dict[str, list[float]] = {}
        for i, sp in enumerate(spans):
            if not sp.closed or sp.parent is None:
                continue
            run = run_index.get(roots[i] if i in roots else root_of(i))
            if run is None:
                continue
            series = out.setdefault(sp.name, [0.0] * self.repeats)
            series[run] += max(sp.wall - child_wall.get(i, 0.0), 0.0)
        return out

    # -- rendering -----------------------------------------------------
    def format_table(self) -> str:
        """The per-stage cost table the profiling CLI prints."""
        lines = [
            f"# profile: {self.name}  K={self.K} N={self.N} "
            f"repeats={self.repeats}  D(K)={self.level_dims[-1]}",
            f"{'stage':<24}{'count':>8}{'total s':>12}{'self s':>12}"
            f"{'% of wall':>11}",
        ]
        for row in self.stage_rows():
            lines.append(
                f"{row['stage']:<24}{row['count']:>8}"
                f"{row['wall']:>12.4f}{row['self']:>12.4f}"
                f"{100.0 * row['share']:>10.1f}%"
            )
        lines.append(
            f"{'span total':<24}{'':>8}{self.span_total:>12.4f}{'':>12}"
            f"{100.0 * self.coverage:>10.1f}%"
        )
        lines.append(
            f"{'end-to-end wall':<24}{'':>8}{self.end_to_end:>12.4f}"
        )
        return "\n".join(lines)

    # -- exports -------------------------------------------------------
    def bench_record(self) -> dict[str, Any]:
        """One BENCH_transient.json workload entry (median-of-repeats)."""
        per_stage = self._per_run_stage_self()
        return {
            "name": self.name,
            "K": self.K,
            "N": self.N,
            "repeats": self.repeats,
            "level_dims": self.level_dims,
            "makespan": self.makespan,
            "wall_seconds": {
                "median": statistics.median(self.run_walls),
                "min": min(self.run_walls),
                "max": max(self.run_walls),
                "runs": [round(w, 6) for w in self.run_walls],
            },
            "stages": {
                name: {
                    "median_self_seconds": round(statistics.median(runs), 6),
                    "count_per_run": round(
                        (self.instrumentation.tracer.stage_totals()
                         [name]["count"]) / self.repeats, 3
                    ),
                }
                for name, runs in sorted(per_stage.items())
            },
            **({"meta": self.meta} if self.meta else {}),
        }

    def write_artifacts(
        self,
        *,
        trace_path: str | Path | None = None,
        metrics_path: str | Path | None = None,
        metrics_json_path: str | Path | None = None,
        report_json_path: str | Path | None = None,
    ) -> list[Path]:
        """Write the trace / metrics / sweep-report artifact files.

        ``report_json_path`` serializes :attr:`sweep_reports` with the
        same ``repro-sweep-report/2`` schema the experiments CLI's
        ``--report-json`` emits — an empty ``reports`` list documents
        that no supervised sweep ran during this profile.
        """
        written = []
        if trace_path is not None:
            p = Path(trace_path)
            p.write_text(self.instrumentation.tracer.to_jsonl() + "\n")
            written.append(p)
        if metrics_path is not None:
            p = Path(metrics_path)
            p.write_text(self.instrumentation.metrics.to_prometheus())
            written.append(p)
        if metrics_json_path is not None:
            p = Path(metrics_json_path)
            p.write_text(self.instrumentation.metrics.to_json() + "\n")
            written.append(p)
        if report_json_path is not None:
            p = Path(report_json_path)
            p.write_text(json.dumps(
                {"reports": [r.to_dict() for r in self.sweep_reports]},
                indent=2,
            ) + "\n")
            written.append(p)
        return written


def profile_spec(
    spec,
    K: int,
    N: int,
    *,
    repeats: int = 5,
    name: str | None = None,
    measure_rss: bool = True,
    resilience=None,
    propagation: str = "propagator",
) -> ProfileResult:
    """Profile ``repeats`` cold solves of ``spec`` at ``(K, N)``.

    With ``resilience`` (a
    :class:`~repro.resilience.fallback.ResilienceConfig`), each repeat
    runs through the degradation ladder instead of the plain model, so
    rung attempts and guard trips show up in the trace and metrics.
    ``propagation`` selects the epoch engine of the plain model
    (``"propagator"`` or ``"spectral"``); the ladder under
    ``resilience`` always runs the model's default engine.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats!r}")
    from repro.core.transient import TransientModel
    from repro.resilience.budget import predict_level_dims

    ins = Instrumentation.enabled(measure_rss=measure_rss)
    run_walls: list[float] = []
    makespan = 0.0
    level_dims = predict_level_dims(spec, int(K))
    with ins.activate():
        for run in range(repeats):
            t0 = time.perf_counter()
            with ins.tracer.span("profile_run", run=run, K=K, N=N):
                if resilience is not None:
                    from repro.resilience.fallback import solve_resilient

                    makespan = solve_resilient(spec, K, N, resilience).makespan
                else:
                    makespan = TransientModel(
                        spec, K, propagation=propagation
                    ).makespan(N)
            run_walls.append(time.perf_counter() - t0)
    return ProfileResult(
        name=name or getattr(spec, "name", None) or "workload",
        K=int(K),
        N=int(N),
        repeats=repeats,
        run_walls=run_walls,
        makespan=float(makespan),
        level_dims=level_dims,
        instrumentation=ins,
        meta={
            "resilient": resilience is not None,
            "propagation": "propagator" if resilience is not None else propagation,
        },
    )


# ----------------------------------------------------------------------
def write_bench(
    path: str | Path,
    workloads: list[dict[str, Any]],
    *,
    source: str = "repro profile",
) -> Path:
    """Write (or merge into) a ``BENCH_transient.json`` perf-trajectory file.

    Existing workloads with the same ``name`` are replaced; others are
    preserved, so the CLI and the benchmark suite can share one file.
    """
    path = Path(path)
    existing: list[dict[str, Any]] = []
    if path.exists():
        try:
            old = json.loads(path.read_text())
            if old.get("schema") == BENCH_SCHEMA:
                existing = list(old.get("workloads", []))
        except (ValueError, OSError):
            existing = []
    fresh_names = {w["name"] for w in workloads}
    merged = [w for w in existing if w.get("name") not in fresh_names]
    merged.extend(workloads)
    merged.sort(key=lambda w: str(w.get("name")))
    doc = {
        "schema": BENCH_SCHEMA,
        "source": source,
        "created_unix": int(time.time()),
        "workloads": merged,
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def validate_bench(path: str | Path) -> dict[str, Any]:
    """Load and schema-check a BENCH_transient.json (CI smoke gate).

    Raises ``ValueError`` with a precise message on any malformation.
    """
    path = Path(path)
    if not path.exists():
        raise ValueError(f"{path}: missing")
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if doc.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path}: schema {doc.get('schema')!r} != {BENCH_SCHEMA!r}"
        )
    workloads = doc.get("workloads")
    if not isinstance(workloads, list) or not workloads:
        raise ValueError(f"{path}: no workloads recorded")
    for w in workloads:
        for key in ("name", "K", "N", "repeats", "wall_seconds", "stages"):
            if key not in w:
                raise ValueError(
                    f"{path}: workload {w.get('name')!r} missing {key!r}"
                )
        ws = w["wall_seconds"]
        if not isinstance(ws, dict) or "median" not in ws:
            raise ValueError(
                f"{path}: workload {w['name']!r} wall_seconds malformed"
            )
        if not (float(ws["median"]) > 0.0):
            raise ValueError(
                f"{path}: workload {w['name']!r} has nonpositive median wall"
            )
    return doc
