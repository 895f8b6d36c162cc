"""Batched query API over the content-addressed model cache.

A :class:`Query` names one question — a spec, a workstation count ``K``,
a workload ``N`` and a metric (``makespan``, ``interdeparture`` or
``departure``).  :func:`solve_many` answers a batch of them with the
minimum number of model builds:

1. every query gets a model fingerprint and a query fingerprint
   (model + metric + N);
2. duplicate query fingerprints are answered **once** and share the
   value;
3. unique queries are grouped per model, so an N-sweep against one spec
   pays a single build.

Answers are **bit-identical** to per-query cold solves at any batch
order or concurrency: a cached model holds exactly the operators a cold
build would construct, and evaluation is deterministic given those
operators (pinned in ``tests/serve/test_service.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.network.spec import NetworkSpec
from repro.serve.cache import ModelCache, model_fingerprint

__all__ = ["Answer", "Query", "SolverService", "solve_many"]

#: Supported query metrics → model evaluators.
METRICS = ("makespan", "interdeparture", "departure")


def _evaluate(model, metric: str, N: int):
    if metric == "makespan":
        return model.makespan(N)
    if metric == "interdeparture":
        return model.interdeparture_times(N)
    if metric == "departure":
        return model.departure_times(N)
    raise ValueError(
        f"metric must be one of {METRICS}, got {metric!r}"
    )


@dataclass(frozen=True)
class Query:
    """One question for the service (hashable by content fingerprint)."""

    spec: NetworkSpec
    K: int
    N: int
    metric: str = "makespan"

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(
                f"metric must be one of {METRICS}, got {self.metric!r}"
            )

    def model_fingerprint(self) -> str:
        """Key of the model this query runs against (spec, K)."""
        return model_fingerprint(self.spec, self.K)

    def fingerprint(self, model_fp: str | None = None) -> str:
        """Key of the full question: model key + metric + N."""
        import hashlib

        mfp = model_fp or self.model_fingerprint()
        return hashlib.sha256(
            f"{mfp}:{self.metric}:{int(self.N)}".encode("ascii")
        ).hexdigest()


@dataclass
class Answer:
    """One result, with enough provenance to audit the cache path."""

    value: "float | np.ndarray"
    fingerprint: str
    model_fingerprint: str
    #: the model came out of the warm cache (False = built for this call)
    cached: bool
    #: evaluation seconds (excludes any model build on the cold path)
    seconds: float
    #: this answer reused another query's value inside the same batch
    deduped: bool = False


@dataclass
class SolverService:
    """The cache + batching engine behind ``repro serve``.

    One instance per process; safe to call from multiple threads (the
    cache serializes builds per fingerprint, and evaluation only reads
    a model's cached operators once built — the GIL plus per-surface
    laziness keeps concurrent first-touch builds correct because every
    lazy attribute is assigned atomically after construction).
    """

    cache: ModelCache = field(default_factory=ModelCache)

    def solve(self, query: Query) -> Answer:
        """Answer one query through the cache."""
        return self.solve_many([query])[0]

    def solve_many(self, queries: Sequence[Query]) -> list[Answer]:
        """Answer a batch with minimum builds (see module docstring)."""
        queries = list(queries)
        model_fps = [q.model_fingerprint() for q in queries]
        query_fps = [q.fingerprint(m) for q, m in zip(queries, model_fps)]

        # Dedupe identical questions; group unique ones per model,
        # preserving first-appearance order for determinism of labels.
        first_of: dict[str, int] = {}
        groups: "dict[str, list[int]]" = {}
        for i, (qfp, mfp) in enumerate(zip(query_fps, model_fps)):
            if qfp in first_of:
                continue
            first_of[qfp] = i
            groups.setdefault(mfp, []).append(i)

        values: dict[str, object] = {}
        cached_flag: dict[str, bool] = {}
        seconds: dict[str, float] = {}

        for mfp, idxs in groups.items():
            q0 = queries[idxs[0]]
            warm = mfp in self.cache
            model = self.cache.get_or_build(q0.spec, q0.K, fingerprint=mfp)
            for i in idxs:
                t0 = time.perf_counter()
                value = _evaluate(model, queries[i].metric, queries[i].N)
                seconds[query_fps[i]] = time.perf_counter() - t0
                values[query_fps[i]] = value
                cached_flag[query_fps[i]] = warm
            self.cache.settle(mfp)

        return [
            Answer(
                value=values[qfp],
                fingerprint=qfp,
                model_fingerprint=mfp,
                cached=cached_flag[qfp],
                seconds=seconds[qfp],
                deduped=first_of[qfp] != i,
            )
            for i, (qfp, mfp) in enumerate(zip(query_fps, model_fps))
        ]


def solve_many(
    queries: Sequence[Query],
    *,
    cache: ModelCache | None = None,
) -> list[Answer]:
    """Module-level convenience over a throwaway :class:`SolverService`."""
    service = SolverService(cache=cache if cache is not None else ModelCache())
    return service.solve_many(queries)
