"""Content-addressed LRU cache of built :class:`TransientModel`\\ s.

A model is addressed by a SHA-256 over the canonical rendering of
``(spec, K, package version)`` — the same
host-independent scheme :func:`repro.experiments.journal.fingerprint_point`
uses for sweep checkpoints (floats by IEEE-754 hex, dataclasses by sorted
fields, no ``repr`` ambiguity, no hash randomization).  Two processes on
two machines therefore compute the same key for the same question, and a
changed parameter or package upgrade *misses* instead of silently reusing
a stale model.

The cache holds the models themselves — levels with their LU factors,
entrance vectors and the converged refill walk — so a warm hit reads
the walk and steps only the drain.  Eviction is by resident **bytes**,
not entry count: every entry is re-measured through the solver's own
cache-extraction surface
(:meth:`~repro.core.transient.TransientModel.cached_bytes`, which
charges each SuperLU factor its calibrated resident footprint) as it
warms.  Least recently used entries go first; the entry just used is
never evicted, so one oversized model still works (it just pins the
budget until the next insert).

Thread safety: lookups, LRU bookkeeping and the byte/entry gauge reads
run under one lock, and a per-fingerprint build latch guarantees racing
callers share a **single** build — the losers block on the latch and
receive the winner's model object (pinned in
``tests/serve/test_cache.py``).  Hit/miss/eviction counts flow to
``repro_cache_{hits,misses,evictions}_total`` and the
``cache_hit``/``cache_build`` spans through the ambient instrumentation
(metrics are thread-safe; a tracer should only be armed for
single-threaded use, which is why ``repro serve`` runs metrics-only).
"""

from __future__ import annotations

import hashlib
import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.core.transient import TransientModel
from repro.experiments.journal import canonical_value
from repro.network.serialize import spec_to_dict
from repro.network.spec import NetworkSpec
from repro.obs import runtime as _rt

__all__ = [
    "DEFAULT_CACHE_BYTES",
    "ModelCache",
    "model_fingerprint",
]

#: Fingerprint schema tag (bump on incompatible key-derivation changes).
MODEL_SCHEMA = "repro-model-cache/1"

#: Default byte budget: room for many warm paper-scale models (a
#: fig04-class model is charged about 1 MB of operators, LU factors and
#: walk) — generous for answers, bounded for a long-lived daemon.
DEFAULT_CACHE_BYTES = 256 << 20


def model_fingerprint(
    spec: NetworkSpec,
    K: int,
    *,
    version: str | None = None,
) -> str:
    """Stable SHA-256 key of one model: (spec, K, version).

    The spec is serialized through :func:`spec_to_dict` (the wire format)
    and canonicalized by the journal's renderer, so the fingerprint is
    identical across processes, machines and whether the spec arrived as
    a Python object or JSON.  ``version`` defaults to the installed
    package version — an upgrade invalidates every key by construction.
    """
    if version is None:
        from repro import __version__ as version
    payload = json.dumps(
        [MODEL_SCHEMA, version, canonical_value(spec_to_dict(spec)),
         int(K)],
        separators=(",", ":"), sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass
class _Entry:
    """One resident model plus its accounting."""

    model: TransientModel
    fingerprint: str
    bytes: int = 0
    hits: int = 0
    build_seconds: float = 0.0


@dataclass
class _Build:
    """Latch shared by callers racing on one fingerprint."""

    done: threading.Event = field(default_factory=threading.Event)
    model: TransientModel | None = None
    error: BaseException | None = None


class ModelCache:
    """Thread-safe content-addressed LRU of warm transient models."""

    def __init__(self, max_bytes: int = DEFAULT_CACHE_BYTES):
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be positive, got {max_bytes!r}")
        self.max_bytes = int(max_bytes)
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._building: dict[str, _Build] = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._build_seconds = 0.0

    # ------------------------------------------------------------------
    def get_or_build(
        self,
        spec: NetworkSpec,
        K: int,
        *,
        fingerprint: str | None = None,
    ) -> TransientModel:
        """The cached model for ``(spec, K)``, building on miss.

        Raced misses on one fingerprint build **once**: the first caller
        constructs the model while the rest block on a latch and return
        the same object.  A build failure is re-raised in every waiter
        and nothing is inserted.  ``fingerprint`` short-circuits the key
        derivation when the caller already computed it.
        """
        fp = fingerprint or model_fingerprint(spec, K)
        while True:
            with self._lock:
                entry = self._entries.get(fp)
                if entry is not None:
                    self._entries.move_to_end(fp)
                    entry.hits += 1
                    self._hits += 1
                    self._note_hit(entry)
                    return entry.model
                pending = self._building.get(fp)
                if pending is None:
                    pending = self._building[fp] = _Build()
                    builder = True
                else:
                    builder = False
            if not builder:
                pending.done.wait()
                if pending.error is not None:
                    raise pending.error
                if pending.model is not None:
                    return pending.model
                continue  # pragma: no cover - latch settled without result
            return self._build(fp, spec, K, pending)

    def _build(
        self,
        fp: str,
        spec: NetworkSpec,
        K: int,
        pending: _Build,
    ) -> TransientModel:
        import time

        ins = _rt.ACTIVE
        try:
            t0 = time.perf_counter()
            if ins is None:
                model = TransientModel(spec, K)
            else:
                with ins.span("cache_build", fingerprint=fp[:12], K=int(K)):
                    model = TransientModel(spec, K)
            seconds = time.perf_counter() - t0
        except BaseException as exc:
            with self._lock:
                pending.error = exc
                del self._building[fp]
            pending.done.set()
            raise
        entry = _Entry(model=model, fingerprint=fp,
                       bytes=model.cached_bytes(), build_seconds=seconds)
        with self._lock:
            self._entries[fp] = entry
            self._entries.move_to_end(fp)
            self._misses += 1
            self._build_seconds += seconds
            pending.model = model
            del self._building[fp]
            evicted = self._evict_over_budget()
        pending.done.set()
        if ins is not None:
            ins.count("repro_cache_misses_total")
            for _ in range(evicted):
                ins.count("repro_cache_evictions_total")
            self._export_gauges(ins)
        return model

    def _note_hit(self, entry: _Entry) -> None:
        """Hit-path instrumentation (called under the lock; metric
        families carry their own locks, so this cannot deadlock)."""
        ins = _rt.ACTIVE
        if ins is None:
            return
        ins.count("repro_cache_hits_total")
        with ins.span("cache_hit", fingerprint=entry.fingerprint[:12],
                      hits=entry.hits):
            pass

    # ------------------------------------------------------------------
    def settle(self, fingerprint: str) -> None:
        """Re-measure one entry after use and enforce the byte budget.

        A model's resident bytes grow as queries warm its lazy surfaces
        (LU factors, refill walks); callers that
        just solved through a model settle it so the accounting tracks
        reality and eviction fires as soon as the budget is crossed.
        """
        ins = _rt.ACTIVE
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return
            entry.bytes = entry.model.cached_bytes()
            evicted = self._evict_over_budget()
        if ins is not None:
            for _ in range(evicted):
                ins.count("repro_cache_evictions_total")
            self._export_gauges(ins)

    def _evict_over_budget(self) -> int:
        """Drop LRU entries while over budget (caller holds the lock)."""
        evicted = 0
        while len(self._entries) > 1 and self._total_bytes() > self.max_bytes:
            self._entries.popitem(last=False)
            self._evictions += 1
            evicted += 1
        return evicted

    def _total_bytes(self) -> int:
        return sum(e.bytes for e in self._entries.values())

    def _export_gauges(self, ins) -> None:
        # Read under the lock: another thread may be inserting or evicting.
        with self._lock:
            total = self._total_bytes()
            count = len(self._entries)
        ins.gauge("repro_cache_bytes", float(total))
        ins.gauge("repro_cache_entries", float(count))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Snapshot for ``repro serve`` status docs and tests."""
        with self._lock:
            entries = [
                {
                    "fingerprint": e.fingerprint,
                    "K": e.model.K,
                    "bytes": e.bytes,
                    "hits": e.hits,
                    "build_seconds": round(e.build_seconds, 6),
                }
                for e in self._entries.values()
            ]
            return {
                "entries": entries,
                "count": len(entries),
                "bytes": sum(e["bytes"] for e in entries),
                "max_bytes": self.max_bytes,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "build_seconds": round(self._build_seconds, 6),
            }
