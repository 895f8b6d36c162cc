"""The instrumentation bundle and the ``@profiled`` hot-path decorator.

:class:`Instrumentation` is the one object the solver layers know about:
a tracer, a metrics registry, and an optional typed per-epoch callback
(:data:`EpochCallback`), any subset of which may be absent.  Hot paths
test a single reference for ``None`` and pay nothing when observability
is off; the convenience methods here (``span``/``count``/``observe``/
``event``) additionally tolerate a missing tracer or registry, so call
sites never branch on the bundle's internals.

Two ways to arm it:

* explicitly — ``TransientModel(spec, K, instrument=ins)``;
* ambiently — ``with ins.activate(): ...`` makes ``ins`` the process-local
  active instrumentation (see :mod:`repro.obs.runtime`), which every
  wired layer (operators, guards, ladder, simulation) consults.

``@profiled`` wraps a function in a span named after it, resolving the
active instrumentation per call, so decorating a function adds a single
global read when observability is disabled.
"""

from __future__ import annotations

import functools
from contextlib import nullcontext
from typing import TYPE_CHECKING, Any, Callable

from repro.obs import runtime as _rt
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.tracer import Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

__all__ = ["EpochCallback", "Instrumentation", "profiled"]

#: Typed per-epoch callback: ``(epoch_index, level_k, state_vector)``.
#: Invoked *before* each epoch's work — the contract the resilience
#: wall-clock budget relies on.
EpochCallback = Callable[[int, int, "np.ndarray"], None]

_NULL_CONTEXT = nullcontext()


class Instrumentation:
    """A tracer + metrics registry + per-epoch callback, any part optional.

    Parameters
    ----------
    tracer:
        Span collector; ``None`` disables tracing.
    metrics:
        Metric registry; ``None`` disables counting.
    on_epoch:
        Typed per-epoch callback (budget checks, progress bars).
    """

    __slots__ = ("tracer", "metrics", "on_epoch")

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        on_epoch: EpochCallback | None = None,
    ):
        self.tracer = tracer
        self.metrics = metrics
        self.on_epoch = on_epoch

    @classmethod
    def enabled(cls, *, measure_rss: bool = True,
                on_epoch: EpochCallback | None = None) -> "Instrumentation":
        """A fully-armed bundle: fresh tracer + catalog-seeded registry."""
        return cls(
            tracer=Tracer(measure_rss=measure_rss),
            metrics=default_registry(),
            on_epoch=on_epoch,
        )

    # -- composition ---------------------------------------------------
    def merged_over(self, other: "Instrumentation | None") -> "Instrumentation":
        """This bundle with ``other`` filling any missing part.

        Used when a model carries an explicit ``instrument=`` (typically
        just a budget callback) while ambient instrumentation is also
        active: tracing and metrics fall through to the ambient bundle,
        both epoch callbacks run (explicit first).
        """
        if other is None or other is self:
            return self
        on_epoch = self.on_epoch
        if on_epoch is None:
            on_epoch = other.on_epoch
        elif other.on_epoch is not None:
            mine, theirs = self.on_epoch, other.on_epoch

            def on_epoch(j: int, k: int, x, _a=mine, _b=theirs) -> None:
                _a(j, k, x)
                _b(j, k, x)

        return Instrumentation(
            tracer=self.tracer if self.tracer is not None else other.tracer,
            metrics=self.metrics if self.metrics is not None else other.metrics,
            on_epoch=on_epoch,
        )

    def activate(self):
        """Install as the process-local active bundle (context manager)."""
        return _rt.activate(self)

    # -- null-safe convenience surface ---------------------------------
    def span(self, name: str, **attrs: Any):
        """Open a tracing span, or a free null context without a tracer."""
        if self.tracer is None:
            return _NULL_CONTEXT
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        if self.tracer is not None:
            self.tracer.event(name, **attrs)

    def count(self, name: str, amount: float = 1.0, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount, **labels)

    def gauge(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.gauge(name).set(value, **labels)

    def observe(self, name: str, value: float, **labels: Any) -> None:
        if self.metrics is not None:
            self.metrics.histogram(name).observe(value, **labels)


def profiled(fn: Callable | None = None, *, name: str | None = None):
    """Decorator: run the function under a span named after it.

    Usable bare (``@profiled``) or parameterized
    (``@profiled(name="steady_state")``).  When no instrumentation is
    active the wrapper is one module-global read plus the call itself.
    """

    def decorate(func: Callable) -> Callable:
        span_name = name or func.__qualname__

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            ins = _rt.ACTIVE
            if ins is None or ins.tracer is None:
                return func(*args, **kwargs)
            with ins.tracer.span(span_name):
                return func(*args, **kwargs)

        wrapper.__profiled_span__ = span_name
        return wrapper

    if fn is not None:
        return decorate(fn)
    return decorate
