"""Nested tracing spans for the transient solve pipeline.

The paper's pipeline — build level operators → fill → steady epochs →
drain (§4) — has sharply different cost regimes: operator assembly is
combinatorial in ``D(k)`` while each epoch is two sparse solves.  A
:class:`Tracer` records where wall time and memory actually go as a tree
of :class:`Span` records, each carrying the structured attributes of its
stage (level ``k``, state-space dimension, nonzeros) plus point-in-time
:class:`SpanEvent` annotations (guard trips, ladder-rung outcomes).

Spans are cheap — one ``perf_counter`` pair, one RSS read, and one dict —
but not free, so the tracer is only ever consulted through
:mod:`repro.obs.runtime`: when no instrumentation is active the hot paths
skip it entirely and the solver is bit-identical to the untraced build.

Export formats:

* :meth:`Tracer.to_jsonl` — one JSON object per span, in start order,
  with ``parent`` indices so any consumer can rebuild the tree;
* :meth:`Tracer.render_tree` — an indented human-readable rendering for
  terminals and docs.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Span", "SpanEvent", "Tracer", "read_rss_bytes"]

_PAGE_SIZE = 4096
try:  # pragma: no cover - platform constant
    import resource

    _PAGE_SIZE = resource.getpagesize()
except Exception:  # pragma: no cover - non-POSIX fallback
    resource = None  # type: ignore[assignment]


def read_rss_bytes() -> int:
    """Current resident-set size in bytes (0 when unmeasurable).

    Reads ``/proc/self/statm`` on Linux (current RSS, one short read);
    falls back to ``ru_maxrss`` (peak RSS) elsewhere, so deltas are
    monotone-nonnegative on the fallback path.
    """
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except OSError:
        pass
    if resource is not None:
        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # Linux reports KiB, macOS bytes; both only matter off-Linux here.
        return int(usage) * 1024
    return 0  # pragma: no cover - no RSS source at all


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span (guard trip, rung verdict)."""

    name: str
    #: seconds since the enclosing span started
    offset: float
    attrs: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "offset": round(self.offset, 9), **(
            {"attrs": self.attrs} if self.attrs else {}
        )}


@dataclass
class Span:
    """One timed stage of the pipeline."""

    name: str
    #: index of the parent span in the tracer's flat list (None = root)
    parent: int | None
    #: nesting depth (0 = root)
    depth: int
    #: ``perf_counter`` at entry, relative to the tracer's epoch
    start: float
    attrs: dict[str, Any] = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)
    #: wall-clock duration in seconds (set when the span closes)
    wall: float | None = None
    #: RSS delta across the span in bytes (set when the span closes)
    rss_delta: int | None = None
    _t0: float = 0.0
    _rss0: int = 0

    @property
    def closed(self) -> bool:
        return self.wall is not None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready record (schema documented in docs/OBSERVABILITY.md)."""
        out: dict[str, Any] = {
            "name": self.name,
            "parent": self.parent,
            "depth": self.depth,
            "start": round(self.start, 9),
            "wall": None if self.wall is None else round(self.wall, 9),
            "rss_delta": self.rss_delta,
        }
        if self.attrs:
            out["attrs"] = self.attrs
        if self.events:
            out["events"] = [e.to_dict() for e in self.events]
        return out


class _SpanHandle:
    """Context manager closing one span (re-entrant tracers need no lock:
    the solver pipeline is single-threaded per model)."""

    __slots__ = ("_tracer", "_index")

    def __init__(self, tracer: "Tracer", index: int):
        self._tracer = tracer
        self._index = index

    @property
    def span(self) -> Span:
        return self._tracer.spans[self._index]

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self._index, failed=exc_type is not None)


class Tracer:
    """Collects :class:`Span` records as a tree.

    Parameters
    ----------
    measure_rss:
        Record RSS deltas per span.  One ``/proc`` read per span edge;
        disable for micro-benchmarks where even that matters.
    """

    def __init__(self, *, measure_rss: bool = True):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._measure_rss = measure_rss
        self._epoch = time.perf_counter()
        #: wall-clock time (``time.time()``) at tracer construction.  Span
        #: ``start`` offsets are relative to this instant, so a span's
        #: absolute timestamp is ``epoch_unix + span.start`` — the anchor
        #: the fleet aggregator uses to align traces across workers.
        self.epoch_unix = time.time()

    # -- recording -----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> _SpanHandle:
        """Open a nested span; use as ``with tracer.span("epoch", k=5): ...``."""
        now = time.perf_counter()
        parent = self._stack[-1] if self._stack else None
        sp = Span(
            name=name,
            parent=parent,
            depth=len(self._stack),
            start=now - self._epoch,
            attrs=attrs,
            _t0=now,
            _rss0=read_rss_bytes() if self._measure_rss else 0,
        )
        index = len(self.spans)
        self.spans.append(sp)
        self._stack.append(index)
        return _SpanHandle(self, index)

    def _close(self, index: int, *, failed: bool = False) -> None:
        sp = self.spans[index]
        sp.wall = time.perf_counter() - sp._t0
        sp.rss_delta = (
            read_rss_bytes() - sp._rss0 if self._measure_rss else 0
        )
        if failed:
            sp.attrs.setdefault("error", True)
        # Abandoned children (an exception unwound past them) close too.
        while self._stack and self._stack[-1] >= index:
            self._stack.pop()

    def event(self, name: str, **attrs: Any) -> None:
        """Attach a point event to the innermost open span (no-op at root)."""
        if not self._stack:
            return
        sp = self.spans[self._stack[-1]]
        sp.events.append(
            SpanEvent(name=name, offset=time.perf_counter() - sp._t0, attrs=attrs)
        )

    @property
    def open_spans(self) -> int:
        """Number of spans not yet closed (0 after a clean run)."""
        return len(self._stack)

    def graft(self, spans: list[Span], *, offset: float | None = None,
              attrs: dict[str, Any] | None = None) -> None:
        """Adopt spans recorded by another tracer (local shard helpers).

        Foreign spans keep their relative structure: parent links are
        re-indexed into this tracer's flat list.  Only closed spans are
        adopted.  Two alignment modes:

        * ``offset=None`` (helper flush): roots are attached under
          the innermost open span (if any) and start offsets are re-based
          to this tracer's clock at graft time, so the merged timeline
          stays monotone even though worker clocks are unrelated.
        * ``offset`` given (fleet aggregation): the foreign spans were
          recorded against a tracer whose wall-clock epoch differs from
          this one's by ``offset`` seconds
          (``their.epoch_unix - ours.epoch_unix``); each adopted start
          becomes ``offset + sp.start``, placing every worker on one
          wall-clock-aligned fleet timeline.  Orphan spans stay roots
          (``parent=None``) at their shipped depth.

        ``attrs`` (e.g. ``{"worker": wid}``) is merged into every adopted
        span without overwriting the span's own keys.
        """
        closed = [sp for sp in spans if sp.closed]
        if not closed:
            return
        index_of = {id(sp): i for i, sp in enumerate(spans)}
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        depth0 = len(self._stack)
        now = time.perf_counter() - self._epoch
        t0 = min(sp.start for sp in closed)
        remap: dict[int, int] = {}
        for j, sp in enumerate(closed):
            remap[index_of[id(sp)]] = base + j
        for sp in spans:
            if not sp.closed:
                continue
            if sp.parent is None or sp.parent not in remap:
                new_parent = None if offset is not None else parent
                extra_depth = sp.depth if offset is not None else 0
                root_depth = 0 if offset is not None else depth0
            else:
                new_parent = remap[sp.parent]
                extra_depth = sp.depth
                root_depth = 0 if offset is not None else depth0
            new_attrs = dict(sp.attrs)
            if attrs:
                for k, v in attrs.items():
                    new_attrs.setdefault(k, v)
            self.spans.append(
                Span(
                    name=sp.name,
                    parent=new_parent,
                    depth=root_depth + extra_depth,
                    start=(offset + sp.start) if offset is not None
                    else now + (sp.start - t0),
                    attrs=new_attrs,
                    events=list(sp.events),
                    wall=sp.wall,
                    rss_delta=sp.rss_delta,
                )
            )

    # -- aggregation ---------------------------------------------------
    def iter_closed(self) -> Iterator[Span]:
        for sp in self.spans:
            if sp.closed:
                yield sp

    def stage_totals(self) -> dict[str, dict[str, float]]:
        """Aggregate closed spans by name: count, total wall, self wall.

        ``self`` excludes time attributed to child spans, so the values sum
        to (at most) the root wall time and make an honest cost table.
        """
        child_wall: dict[int, float] = {}
        for i, sp in enumerate(self.spans):
            if sp.closed and sp.parent is not None:
                child_wall[sp.parent] = child_wall.get(sp.parent, 0.0) + sp.wall
        out: dict[str, dict[str, float]] = {}
        for i, sp in enumerate(self.spans):
            if not sp.closed:
                continue
            agg = out.setdefault(
                sp.name, {"count": 0.0, "wall": 0.0, "self": 0.0}
            )
            agg["count"] += 1
            agg["wall"] += sp.wall
            agg["self"] += max(sp.wall - child_wall.get(i, 0.0), 0.0)
        return out

    def total_wall(self) -> float:
        """Summed wall time of the root (depth-0) spans."""
        return sum(sp.wall for sp in self.iter_closed() if sp.depth == 0)

    # -- export --------------------------------------------------------
    def to_jsonl(self) -> str:
        """One JSON object per span, start-ordered, ``parent``-linked."""
        return "\n".join(json.dumps(sp.to_dict()) for sp in self.spans)

    def render_tree(self, *, min_wall: float = 0.0) -> str:
        """Indented tree: name, wall seconds, rss delta, key attributes."""
        lines = []
        for sp in self.spans:
            if not sp.closed or sp.wall < min_wall:
                continue
            attrs = " ".join(
                f"{k}={v}" for k, v in sp.attrs.items() if not k.startswith("_")
            )
            rss = ""
            if sp.rss_delta:
                rss = f" rss{sp.rss_delta / 1e6:+.1f}MB"
            lines.append(
                f"{'  ' * sp.depth}{sp.name}  {sp.wall * 1e3:.2f}ms{rss}"
                + (f"  [{attrs}]" if attrs else "")
                + (f"  ({len(sp.events)} events)" if sp.events else "")
            )
        return "\n".join(lines)
