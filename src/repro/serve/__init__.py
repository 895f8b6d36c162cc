"""Solver-as-a-service: warm model reuse behind a batched query surface.

The paper's pitch is that one cheap analytic model answers what-if
questions that would each cost a simulation run — but a cold
:class:`~repro.core.transient.TransientModel` still pays operator
assembly, LU factorization and its refill walk before its first
answer.  This package amortizes that cost across queries:

* :mod:`repro.serve.cache` — a content-addressed, byte-budgeted LRU of
  built models, keyed by the same host-independent SHA-256 canonical
  fingerprints the sweep journal uses;
* :mod:`repro.serve.service` — :func:`~repro.serve.service.solve_many`:
  dedupe by fingerprint, group per model, solve every ``N`` against one
  warm build (optionally fanning distinct-model groups across a
  :class:`~repro.experiments.executor.SweepExecutor` pool);
* :mod:`repro.serve.admission` — bounded admission control in front of
  the solver pool: max in-flight, deadline-evicted wait queue,
  ``429``/``503`` + ``Retry-After`` shedding, cost-aware admission via
  the exact ``D_RP(k)`` prediction, and brownout onto cheap ladder
  rungs;
* :mod:`repro.serve.daemon` — the ``repro serve`` asyncio HTTP front-end
  (``solve`` / ``solve_many`` / ``status`` / ``healthz`` / ``readyz`` /
  ``metrics`` / ``drill``) with keep-alive, per-request deadlines,
  graceful drain, and the resilience ladder's 0/1/2 verdicts mapped
  onto response codes;
* :mod:`repro.serve.client` — the retry-budgeted, circuit-broken,
  deadline-propagating client half (a fleet of these cannot
  retry-storm the daemon);
* :mod:`repro.serve.drill` — the closed-loop metastable-collapse drill
  (naive clients collapse the service, budgeted clients recover it).

Everything is stdlib + the existing solver stack; answers through the
cache are bit-identical to cold solves (pinned in ``tests/serve/``).
"""

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    ShedError,
)
from repro.serve.cache import (
    DEFAULT_CACHE_BYTES,
    ModelCache,
    model_fingerprint,
)
from repro.serve.client import ServeClient
from repro.serve.service import Answer, Query, SolverService, solve_many

__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "Answer",
    "DEFAULT_CACHE_BYTES",
    "ModelCache",
    "Query",
    "ServeClient",
    "ShedError",
    "SolverService",
    "model_fingerprint",
    "solve_many",
]
