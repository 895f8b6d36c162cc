"""Mean-free distribution *shapes*.

Cluster builders need "this server is H2 with C² = 10" while the mean is
derived later from the application model's time components.  A
:class:`Shape` captures the family and shape parameters and instantiates a
concrete :class:`~repro.distributions.ph.PHDistribution` once the mean is
known.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.distributions.builders import erlang as _erlang
from repro.distributions.builders import exponential as _exponential
from repro.distributions.fitting import fit_h2, fit_scv
from repro.distributions.ph import PHDistribution
from repro.distributions.powertail import truncated_power_tail

__all__ = ["Shape"]


@dataclass(frozen=True)
class Shape:
    """A distribution family with fixed shape, instantiated by mean.

    Use the factory classmethods rather than the constructor.
    """

    name: str
    _factory: Callable[[float], PHDistribution]
    params: dict[str, Any] = field(default_factory=dict)

    def with_mean(self, mean: float) -> PHDistribution:
        """Instantiate the shape at the given mean."""
        return self._factory(float(mean))

    def __reduce__(self):
        # The factory closure is not picklable; rebuild from (name, params)
        # instead so shapes pickle.
        return (_rebuild_shape, (self.name, dict(self.params)))

    # ------------------------------------------------------------------
    @classmethod
    def exponential(cls) -> "Shape":
        """Exponential (C² = 1)."""
        return cls("exponential", lambda mean: _exponential(1.0 / mean))

    @classmethod
    def erlang(cls, m: int) -> "Shape":
        """Erlang-``m`` (C² = 1/m)."""
        m = int(m)
        return cls("erlang", lambda mean: _erlang(m, m / mean), {"m": m})

    @classmethod
    def hyperexp(cls, scv: float, method: str = "balanced", **kwargs) -> "Shape":
        """Hyperexponential-2 with C² = ``scv`` (> 1); see :func:`fit_h2`."""
        scv = float(scv)
        return cls(
            "hyperexp",
            lambda mean: fit_h2(mean, scv, method, **kwargs),
            {"scv": scv, "method": method, **kwargs},
        )

    @classmethod
    def scv(cls, scv: float, h2_method: str = "balanced", **kwargs) -> "Shape":
        """Any C² via the :func:`fit_scv` dispatcher (Erlang mix / Exp / H2)."""
        scv = float(scv)
        return cls(
            "scv",
            lambda mean: fit_scv(mean, scv, h2_method, **kwargs),
            {"scv": scv, "h2_method": h2_method, **kwargs},
        )

    @classmethod
    def power_tail(cls, alpha: float, m: int = 12, gamma: float = 2.0) -> "Shape":
        """Truncated power tail with index ``alpha``."""
        return cls(
            "power_tail",
            lambda mean: truncated_power_tail(mean, alpha, m, gamma),
            {"alpha": alpha, "m": m, "gamma": gamma},
        )

    @classmethod
    def fixed(cls, dist: PHDistribution) -> "Shape":
        """Rescale an explicit distribution to each requested mean."""
        return cls("fixed", dist.with_mean, {"dist": dist})


def _rebuild_shape(name: str, params: dict[str, Any]) -> Shape:
    """Unpickle helper: reconstruct a :class:`Shape` from its factory name."""
    params = dict(params)
    if name == "exponential":
        return Shape.exponential()
    if name == "erlang":
        return Shape.erlang(params.pop("m"))
    if name == "hyperexp":
        return Shape.hyperexp(params.pop("scv"), params.pop("method"), **params)
    if name == "scv":
        return Shape.scv(params.pop("scv"), params.pop("h2_method"), **params)
    if name == "power_tail":
        return Shape.power_tail(**params)
    if name == "fixed":
        return Shape.fixed(params.pop("dist"))
    raise ValueError(f"cannot rebuild Shape of unknown family {name!r}")
