"""Exact distributions of individual inter-departure epochs.

Section 4 of the paper computes the *mean* of each epoch as ``x τ'_k``.
But each epoch is itself a phase-type passage: starting from the epoch's
state mix ``x`` on level ``k``, the time to the next departure has the
matrix-exponential law ``⟨x, B_k⟩`` with ``B_k = M_k (I − P_k)`` — the
same construction as the single-customer service time, one level up.
This module exposes that law, giving epoch variances, percentiles and
densities the paper's mean-value analysis cannot.

Note the epochs are *not* independent (the end state of one epoch is the
start state of the next), so the makespan law still needs the absorbing
chain of :class:`repro.markov.MakespanAnalyzer`; per-epoch marginals are
exactly what this module returns.
"""

from __future__ import annotations

import numpy as np

from repro.core.transient import TransientModel
from repro.distributions.base import MatrixExponential
from repro.resilience.errors import ConvergenceError

__all__ = ["epoch_distribution", "epoch_distributions", "epoch_scvs"]


def _entrance_mix(x: np.ndarray) -> np.ndarray:
    """Clip away tiny negative components and renormalize to a proper mix.

    The division must use the *clipped* sum: dividing by the raw sum would
    leave the entrance vector summing to slightly more than 1 whenever
    round-off produced negative entries.  An all-nonpositive vector
    (reachable under fault injection or a badly conditioned level) has no
    mass left to normalize — raise instead of returning a NaN mix.
    """
    clipped = np.clip(x, 0.0, None)
    mass = clipped.sum()
    if not mass > 0.0:
        raise ConvergenceError(
            "epoch entrance vector has no positive mass to normalize "
            f"(sum {float(np.sum(x)):.3e}, min {float(np.min(x)):.3e})",
            residuals=[float(np.sum(x))],
        )
    return clipped / mass


def _epoch_levels(model: TransientModel, N: int) -> list[int]:
    k_active = min(model.K, int(N))
    return [k_active] * (N - k_active) + list(range(k_active, 0, -1))


def epoch_distribution(model: TransientModel, N: int, epoch: int) -> MatrixExponential:
    """The exact law of one inter-departure epoch (1-indexed).

    Returns a :class:`MatrixExponential` whose mean equals
    ``model.interdeparture_times(N)[epoch − 1]``.
    """
    if not 1 <= epoch <= N:
        raise ValueError(f"epoch must be in 1..{N}, got {epoch!r}")
    levels = _epoch_levels(model, N)
    # Only the requested epoch's vector is needed: the spectral engine
    # jumps to it in O(1), the stepped paths stop the recurrence there —
    # never O(N) work and memory for a single epoch.
    x = model.epoch_vector(N, epoch - 1)
    k = levels[epoch - 1]
    return MatrixExponential(_entrance_mix(x), model.level_B(k))


def epoch_distributions(model: TransientModel, N: int) -> list[MatrixExponential]:
    """The laws of all ``N`` epochs (shares state vectors and level B's)."""
    levels = _epoch_levels(model, N)
    vecs = model.epoch_vectors(N)
    B_cache: dict[int, np.ndarray] = {}
    out = []
    for x, k in zip(vecs, levels):
        if k not in B_cache:
            B_cache[k] = model.level_B(k)
        out.append(MatrixExponential(_entrance_mix(x), B_cache[k]))
    return out


def epoch_scvs(model: TransientModel, N: int) -> np.ndarray:
    """Squared coefficient of variation of every epoch.

    A compact fingerprint of the regions: warm-up epochs are smoother than
    steady state; draining epochs inherit the task-time variability.
    """
    return np.array([d.scv for d in epoch_distributions(model, N)])
