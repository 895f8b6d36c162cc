"""Process-local metrics: counters, gauges, histograms, two exporters.

A :class:`MetricsRegistry` is a plain in-process object — no sockets, no
background threads of its own — holding named metric families with
optional labels.  The solver increments families like
``repro_epochs_solved_total`` and ``repro_guard_trips_total{where=...}``
through the instrumentation layer (:mod:`repro.obs.instrument`);
exporters serialize the whole registry as

* JSON (:meth:`MetricsRegistry.to_json`) — nested, machine-loadable, the
  format the profiling CLI archives next to traces;
* Prometheus text exposition format (:meth:`MetricsRegistry.to_prometheus`)
  — ``# HELP`` / ``# TYPE`` blocks ready for a node-exporter textfile
  collector or a pushgateway.

Mutations and exports are **thread-safe**: every family guards its series
with a lock, so the shard heartbeat thread may legally record lease
renewals (and snapshot the registry for the fleet telemetry stream) while
the main thread is mid-solve.  The tracer, by contrast, remains
single-threaded by design — background threads may count, never span.

Label values are kept stable by construction: the solver only ever uses
the reason codes of :mod:`repro.resilience.errors` and the fixed span
names of :mod:`repro.obs.tracer`, so dashboards keyed on them survive
refactors (tested in ``tests/obs/test_metrics.py``).
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_right
from typing import Any, Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "default_registry"]

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: _LabelKey) -> str:
    if not key:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in key)
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(v: float) -> str:
    if v == math.inf:
        return "+Inf"
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


class _Metric:
    """Shared bookkeeping of one metric family.

    Each family carries its own mutation lock: increments/observations
    from a background thread (the shard heartbeat) interleave safely with
    the main thread's, and exporters snapshot under the same lock.
    """

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._series: dict[_LabelKey, Any] = {}
        self._lock = threading.Lock()

    def __getstate__(self) -> dict[str, Any]:
        # Local shard helpers pipe their registry back pickled; the lock
        # is process-local state and is recreated on the other side.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    @property
    def series(self) -> dict[_LabelKey, Any]:
        return self._series

    def labels_seen(self) -> list[dict[str, str]]:
        return [dict(key) for key in sorted(self._series)]


class Counter(_Metric):
    """Monotone counter; ``inc`` with optional labels."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        return float(self._series.get(_label_key(labels), 0.0))


class Gauge(_Metric):
    """Last-write-wins instantaneous value."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float:
        return float(self._series.get(_label_key(labels), 0.0))


#: Default histogram buckets: sub-millisecond sparse solves up to
#: multi-minute whole-figure sweeps (seconds).
DEFAULT_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


class Histogram(_Metric):
    """Cumulative-bucket histogram (Prometheus semantics)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: Iterable[float] = DEFAULT_BUCKETS):
        super().__init__(name, help)
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {self.name} needs at least one bucket")
        self.buckets = tuple(bounds)

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = {"count": 0, "sum": 0.0,
                         "bucket_counts": [0] * len(self.buckets)}
                self._series[key] = state
            state["count"] += 1
            state["sum"] += float(value)
            i = bisect_right(self.buckets, float(value))
            if i < len(self.buckets):
                state["bucket_counts"][i] += 1

    def snapshot(self, **labels: Any) -> dict[str, Any]:
        """Count/sum/cumulative-bucket view for one label set."""
        with self._lock:
            state = self._series.get(_label_key(labels))
            if state is None:
                return {"count": 0, "sum": 0.0, "buckets": {}}
            counts = list(state["bucket_counts"])
            count, total = state["count"], state["sum"]
        cum, out = 0, {}
        for bound, n in zip(self.buckets, counts):
            cum += n
            out[bound] = cum
        return {"count": count, "sum": total, "buckets": out}

    def quantile(self, q: float, **labels: Any) -> float:
        """Estimate the ``q``-quantile (0..1) from the cumulative buckets.

        Prometheus-style ``histogram_quantile``: linear interpolation
        inside the bucket the rank falls into, with the lowest bucket
        interpolated from 0 and anything beyond the last finite bound
        clamped to it.  Returns ``nan`` for an empty histogram.  An
        estimate, not an order statistic — exact per-point percentiles
        come from :func:`repro.experiments.executor.latency_summary`.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        snap = self.snapshot(**labels)
        if snap["count"] == 0:
            return math.nan
        rank = q * snap["count"]
        prev_bound, prev_cum = 0.0, 0
        for bound in self.buckets:
            cum = snap["buckets"].get(bound, prev_cum)
            if cum >= rank:
                if cum == prev_cum:  # pragma: no cover - defensive
                    return bound
                frac = (rank - prev_cum) / (cum - prev_cum)
                return prev_bound + frac * (bound - prev_bound)
            prev_bound, prev_cum = bound, cum
        # Rank beyond the last finite bucket (+Inf bucket): clamp.
        return self.buckets[-1]


class MetricsRegistry:
    """Ordered collection of metric families with idempotent registration."""

    def __init__(self):
        self._metrics: dict[str, _Metric] = {}
        self._lock = threading.Lock()

    # -- registration --------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}"
                )
        return metric

    def __getstate__(self) -> dict[str, Any]:
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: Iterable[float] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # -- introspection -------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __iter__(self):
        return iter(self._metrics.values())

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    # -- cross-process aggregation -------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one (worker → parent flush).

        Counters and histograms accumulate; gauges are last-write-wins
        (the incoming value overwrites, matching single-process
        semantics where the later ``set`` would have won).
        """
        for theirs in other:
            if isinstance(theirs, Histogram):
                mine = self.histogram(theirs.name, theirs.help,
                                      buckets=theirs.buckets)
                with mine._lock:
                    for key, state in theirs.series.items():
                        dst = mine.series.get(key)
                        if dst is None:
                            mine.series[key] = {
                                "count": state["count"],
                                "sum": state["sum"],
                                "bucket_counts": list(state["bucket_counts"]),
                            }
                            continue
                        dst["count"] += state["count"]
                        dst["sum"] += state["sum"]
                        for i, n in enumerate(state["bucket_counts"]):
                            dst["bucket_counts"][i] += n
            elif isinstance(theirs, Gauge):
                mine = self.gauge(theirs.name, theirs.help)
                with mine._lock:
                    for key, value in theirs.series.items():
                        mine.series[key] = value
            else:
                mine = self.counter(theirs.name, theirs.help)
                with mine._lock:
                    for key, value in theirs.series.items():
                        mine.series[key] = mine.series.get(key, 0.0) + value

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`to_dict` snapshot.

        The inverse used by the fleet-telemetry reader: workers ship
        periodic ``to_dict`` snapshots in their telemetry stream, and the
        aggregator rehydrates each into a registry so :meth:`merge` can
        fold them into one fleet view.  Histogram cumulative buckets are
        de-cumulated back into per-bucket counts.
        """
        reg = cls()
        for name, fam in doc.items():
            kind = fam.get("kind", "counter")
            help = fam.get("help", "")
            series = fam.get("series", [])
            if kind == "histogram":
                bounds: list[float] | None = None
                for entry in series:
                    keys = sorted(float(b) for b in entry.get("buckets", {}))
                    if keys:
                        bounds = keys
                        break
                hist = reg.histogram(name, help,
                                     buckets=bounds or DEFAULT_BUCKETS)
                for entry in series:
                    key = _label_key(entry.get("labels", {}))
                    cum_by_bound = {float(b): int(c)
                                    for b, c in entry.get("buckets", {}).items()}
                    counts, prev = [], 0
                    for b in hist.buckets:
                        cum = cum_by_bound.get(b, prev)
                        counts.append(cum - prev)
                        prev = cum
                    hist.series[key] = {"count": int(entry["count"]),
                                        "sum": float(entry["sum"]),
                                        "bucket_counts": counts}
            elif kind == "gauge":
                g = reg.gauge(name, help)
                for entry in series:
                    g.series[_label_key(entry.get("labels", {}))] = \
                        float(entry["value"])
            else:
                c = reg.counter(name, help)
                for entry in series:
                    c.series[_label_key(entry.get("labels", {}))] = \
                        float(entry["value"])
        return reg

    # -- exporters -----------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-ready snapshot: ``{name: {kind, help, series: [...]}}``."""
        out: dict[str, Any] = {}
        for m in self._metrics.values():
            series = []
            for key in sorted(m.series):
                labels = dict(key)
                if isinstance(m, Histogram):
                    snap = m.snapshot(**labels)
                    snap["buckets"] = {
                        _format_value(b): c for b, c in snap["buckets"].items()
                    }
                    series.append({"labels": labels, **snap})
                else:
                    series.append({"labels": labels, "value": m.series[key]})
            out[m.name] = {"kind": m.kind, "help": m.help, "series": series}
        return out

    def to_json(self, *, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for m in self._metrics.values():
            if m.help:
                lines.append(f"# HELP {m.name} {m.help}")
            lines.append(f"# TYPE {m.name} {m.kind}")
            if isinstance(m, Histogram):
                for key in sorted(m.series):
                    labels = dict(key)
                    snap = m.snapshot(**labels)
                    cum = 0
                    for bound in m.buckets:
                        cum = snap["buckets"].get(bound, cum)
                        bkey = _label_key({**labels, "le": _format_value(bound)})
                        lines.append(
                            f"{m.name}_bucket{_format_labels(bkey)} {cum}"
                        )
                    inf_key = _label_key({**labels, "le": "+Inf"})
                    lines.append(
                        f"{m.name}_bucket{_format_labels(inf_key)} {snap['count']}"
                    )
                    lines.append(
                        f"{m.name}_sum{_format_labels(key)} "
                        f"{_format_value(snap['sum'])}"
                    )
                    lines.append(
                        f"{m.name}_count{_format_labels(key)} {snap['count']}"
                    )
                continue
            if not m.series:
                lines.append(f"{m.name} 0")
                continue
            for key in sorted(m.series):
                lines.append(
                    f"{m.name}{_format_labels(key)} "
                    f"{_format_value(m.series[key])}"
                )
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
#: The solver's metric catalog (documented in docs/OBSERVABILITY.md).
CATALOG: tuple[tuple[str, str, str], ...] = (
    ("counter", "repro_epochs_solved_total",
     "Departure epochs iterated by the transient solver"),
    ("counter", "repro_sparse_solves_total",
     "Sparse triangular solves through a level LU"),
    ("counter", "repro_factorizations_total",
     "Sparse LU factorizations of (I - P_k)"),
    ("counter", "repro_levels_built_total",
     "Level operator sets assembled"),
    ("counter", "repro_propagators_built_total",
     "Dense Y·R matrices built for the spectral engine, by kind and storage"),
    ("counter", "repro_sweep_points_total",
     "Experiment sweep points solved, by execution mode"),
    ("counter", "repro_guard_trips_total",
     "Health-guard interventions, by site and kind"),
    ("counter", "repro_ladder_rung_total",
     "Degradation-ladder rung attempts, by rung/outcome/reason"),
    ("counter", "repro_replications_total",
     "Discrete-event simulation replications completed"),
    ("counter", "repro_point_retries_total",
     "Sweep point attempts retried by the supervisor, by failure reason"),
    ("counter", "repro_points_salvaged_total",
     "Sweep points recovered by the fallback attempt (no drill, no deadline)"),
    ("counter", "repro_points_resumed_total",
     "Sweep points skipped by reusing a checkpoint journal record"),
    ("counter", "repro_checkpoint_writes_total",
     "Completed sweep points appended to a checkpoint journal"),
    ("counter", "repro_leases_acquired_total",
     "Sweep-point leases acquired by shard workers (fresh claims and steals)"),
    ("counter", "repro_points_stolen_total",
     "Sweep points stolen from an expired lease of a dead or stalled worker"),
    ("counter", "repro_lease_expiries_total",
     "Lease deadlines observed expired by a peer (steal opportunities)"),
    ("counter", "repro_journal_quarantined_total",
     "Corrupted journal/segment records quarantined instead of trusted"),
    ("counter", "repro_lease_renewals_total",
     "Lease heartbeat renewals performed by shard workers"),
    ("counter", "repro_spectral_fallbacks_total",
     "Spectral epoch engines declined (sticky downgrades to the "
     "LU-stepped walk), by reason code"),
    ("counter", "repro_cache_hits_total",
     "Model-cache lookups served from a warm entry"),
    ("counter", "repro_cache_misses_total",
     "Model-cache lookups that had to build a fresh model"),
    ("counter", "repro_cache_evictions_total",
     "Model-cache entries evicted under the byte budget"),
    ("counter", "repro_requests_total",
     "Service requests handled by repro serve, by endpoint and code"),
    ("counter", "repro_admission_total",
     "Admission-controller decisions, by outcome "
     "(admitted/shed/downtier/brownout)"),
    ("counter", "repro_shed_total",
     "Requests refused by the admission controller, by reason"),
    ("counter", "repro_brownout_seconds",
     "Total seconds the service has spent in brownout (cheap ladder "
     "rungs forced)"),
    ("counter", "repro_abandoned_work_total",
     "Pool solves abandoned by timed-out requests but still occupying "
     "a slot until completion"),
    ("counter", "repro_client_retries_total",
     "Retries issued by repro serve clients, by trigger"),
    ("gauge", "repro_epoch_convergence_distance",
     "Convergence of the refill power iteration: the exact spectral gap "
     "of Y_K R_K under propagation=spectral, else the 1-norm step "
     "distance at which the stepped walk stopped (its converged tail or "
     "its last refill epoch); quantity=bound is the tail rule's error "
     "bound on each remaining epoch time at that step"),
    ("gauge", "repro_level_dim",
     "State-space dimension D(k) of each assembled level"),
    ("gauge", "repro_level_nnz",
     "Stored nonzeros (P+Q+R) of each assembled level"),
    ("gauge", "repro_cache_bytes",
     "Bytes currently accounted to warm cached models"),
    ("gauge", "repro_cache_entries",
     "Models currently resident in the model cache"),
    ("gauge", "repro_admission_inflight",
     "Solves currently holding an admission slot (abandoned included)"),
    ("gauge", "repro_admission_queue_depth",
     "Requests currently waiting for an admission slot"),
    ("histogram", "repro_epoch_seconds",
     "Wall seconds per departure epoch"),
    ("histogram", "repro_factorization_seconds",
     "Wall seconds per sparse LU factorization"),
    ("histogram", "repro_replication_seconds",
     "Wall seconds per simulation replication"),
    ("histogram", "repro_point_seconds",
     "Wall seconds per experiment sweep point, by execution mode"),
    ("histogram", "repro_request_seconds",
     "Wall seconds per service request, by endpoint"),
    ("histogram", "repro_admission_wait_seconds",
     "Seconds a request waited in the admission queue before a slot"),
)


def default_registry() -> MetricsRegistry:
    """A registry pre-declaring the solver catalog (stable help strings)."""
    reg = MetricsRegistry()
    for kind, name, help in CATALOG:
        getattr(reg, kind)(name, help)
    return reg
