"""Deterministic fault injection for the resilience layer.

Guards and fallbacks that only fire on real numerical accidents are
untestable; this module manufactures the accidents on demand, so every
check in :mod:`repro.resilience.guards` and every rung of the degradation
ladder in :mod:`repro.resilience.fallback` has a reproducible trigger:

* ``nan_level`` — poison the output of a level's LU-backed solves with
  NaN, either once (a transient bit-flip the refinement retry recovers
  from) or persistently (forces the dense rung);
* ``singular_level`` — make ``I − P_k`` fail to factorize, either by
  simulating a pivoting breakdown (``"near"`` — the dense pivoted solve
  still works) or by actually zeroing a row (``"exact"`` — no direct
  solve can work);
* ``starve_budget`` — collapse the memory budget to one byte, so even
  level prediction refuses to build (forces the AMVA rung).

Faults wrap :class:`~repro.laqt.operators.LevelOperators` behind the same
surface (:class:`~repro.resilience.guards.LevelView`), so the solver code
under test is byte-for-byte the production code.

One layer up, :class:`SweepFaultPlan` manufactures *process-level*
accidents for every sweep runtime — the serial
:class:`~repro.experiments.executor.SweepExecutor` and the lease-based
:class:`~repro.experiments.shard.ShardExecutor` behind ``--jobs`` and
``--shard-dir``.  Point faults key on the point index and the 1-based
attempt number: a point that hangs past its deadline (``hang_point``)
and a point function that raises (``fail_point``).  Claim faults key on
a shard worker's own lease-claim count: death holding a lease (a real
``SIGKILL``), a stalled heartbeat, claims that bypass the lease, and
torn segment appends.  :meth:`SweepFaultPlan.parse` reads the CLI's
``--drill KIND@N`` grammar from one table, :data:`SWEEP_DRILLS`, so every
supervision branch (timeout, retry, salvage, steal, quarantine) has a
reproducible drill.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from repro.laqt.operators import LevelOperators
from repro.resilience.errors import InjectedFaultError, SingularLevelError
from repro.resilience.guards import LevelView

__all__ = [
    "FaultPlan",
    "FaultyLevel",
    "SWEEP_DRILLS",
    "ServeFaultPlan",
    "SweepFaultPlan",
    "apply_faults",
    "trigger_point_fault",
    "trigger_serve_fault",
]


class _PoisonedLU:
    """A SuperLU stand-in whose every solve comes back NaN-poisoned."""

    def __init__(self, lu):
        self._lu = lu

    def solve(self, b, trans: str = "N") -> np.ndarray:
        y = np.array(self._lu.solve(b, trans=trans), dtype=float, copy=True)
        y[0] = np.nan
        return y


@dataclass
class FaultPlan:
    """Declarative description of the faults to inject.

    Parameters
    ----------
    nan_level:
        Level ``k`` whose sparse-LU solve outputs get poisoned with NaN.
    nan_mode:
        ``"once"`` — only the first poisoned call fires (models a
        transient corruption; the refinement retry recovers).
        ``"always"`` — every sparse solve at that level is poisoned
        (models a broken factorization; only the dense rung recovers).
    singular_level:
        Level ``k`` whose factorization is made to fail.
    singular_mode:
        ``"near"`` — the sparse LU *reports* singularity (as SuperLU does
        on pivoting breakdown of a nearly singular matrix) but the matrix
        itself is untouched, so dense partial pivoting succeeds.
        ``"exact"`` — row 0 of ``I − P_k`` is actually zeroed; every
        direct solve fails.
    starve_budget:
        Replace the configured memory budget with a 1-byte cap.
    """

    nan_level: int | None = None
    nan_mode: str = "once"
    singular_level: int | None = None
    singular_mode: str = "near"
    starve_budget: bool = False

    def __post_init__(self):
        if self.nan_mode not in ("once", "always"):
            raise ValueError(f"nan_mode must be 'once' or 'always', got {self.nan_mode!r}")
        if self.singular_mode not in ("near", "exact"):
            raise ValueError(
                f"singular_mode must be 'near' or 'exact', got {self.singular_mode!r}"
            )

    @property
    def active(self) -> bool:
        """True when any fault is armed."""
        return (
            self.nan_level is not None
            or self.singular_level is not None
            or self.starve_budget
        )


class FaultyLevel(LevelView):
    """A :class:`LevelOperators` lookalike with injected failures.

    Presents the full operator surface (``k``, ``dim``, ``space``,
    ``rates``, ``P``, ``Q``, ``R``, ``lu``, ``tau``, ``apply_Y``,
    ``apply_YR``, ``mean_epoch_time``) so it can be dropped anywhere the
    real operators go.
    """

    def __init__(self, ops: LevelOperators, plan: FaultPlan):
        super().__init__(ops)
        self._plan = plan
        self._nan_armed = plan.nan_level == ops.k
        if plan.singular_level == ops.k and plan.singular_mode == "exact":
            # Actually break the matrix: make state 0 absorbing so row 0
            # of (I − P_k) is exactly zero and splu must fail.
            P = ops.P.tolil(copy=True)
            P[0, :] = 0.0
            P[0, 0] = 1.0
            self._ops = LevelOperators(
                k=ops.k, space=ops.space, rates=ops.rates,
                P=sp.csr_matrix(P), Q=ops.Q, R=ops.R,
            )

    @property
    def lu(self):
        if (
            self._plan.singular_level == self.k
            and self._plan.singular_mode == "near"
        ):
            raise SingularLevelError(
                f"injected fault: sparse LU of (I − P_{self.k}) reported "
                "singular (simulated pivoting breakdown)",
                level=self.k,
                dim=self.dim,
                stations=[a.station.name for a in self.space.automata],
            )
        lu = self._ops.lu
        if self._plan.nan_level == self.k and self._plan.nan_mode == "always":
            return _PoisonedLU(lu)
        return lu

    # -- poisoned solves ------------------------------------------------
    def _poison(self, y: np.ndarray) -> np.ndarray:
        if self._nan_armed:
            if self._plan.nan_mode == "once":
                self._nan_armed = False
            y = np.array(y, dtype=float, copy=True)
            y[0] = np.nan
        return y

    @property
    def tau(self) -> np.ndarray:
        self.lu  # near-singular fault also blocks tau
        return self._poison(self._ops.tau)

    def apply_Y(self, x: np.ndarray) -> np.ndarray:
        self.lu
        return self._poison(self._ops.apply_Y(x))

    def apply_YR(self, x: np.ndarray) -> np.ndarray:
        self.lu
        return self._poison(self._ops.apply_YR(x))

    def mean_epoch_time(self, x: np.ndarray) -> float:
        return float(np.asarray(x, dtype=float) @ self.tau)


def apply_faults(ops: LevelOperators, plan: "FaultPlan | None"):
    """Wrap level operators per the plan (or return them untouched)."""
    if plan is None or not plan.active:
        return ops
    if plan.nan_level != ops.k and plan.singular_level != ops.k:
        return ops
    return FaultyLevel(ops, plan)


# ----------------------------------------------------------------------
# Sweep-level faults: drills for every sweep runtime (serial and shard).
#: Placeholder in :data:`SWEEP_DRILLS` for the number after ``@``.
_COUNT = object()

#: ``--drill`` grammar: kind -> (operand, the plan fields it arms).  The
#: operand after ``@`` is a point ``index`` (required, >= 0) or a
#: worker-local ``claims`` count (optional, default 1, >= 1; shard
#: workers only — the two boolean kinds check it and ignore it).
SWEEP_DRILLS = {
    "hang": ("index", {"hang_point": _COUNT}),
    "hang-always": ("index", {"hang_point": _COUNT, "hang_attempts": None}),
    "fail": ("index", {"fail_point": _COUNT}),
    "die-after-claim": ("claims", {"die_after_claims": _COUNT}),
    "stale-heartbeat": ("claims", {"stall_heartbeat_after": _COUNT}),
    "duplicate-claim": ("claims", {"duplicate_claim": True}),
    "torn-segment": ("claims", {"tear_segment": True}),
}


@dataclass(frozen=True)
class SweepFaultPlan:
    """Deterministic process-level faults for sweep supervision drills.

    Point faults name a *point index* and the number of leading attempts
    they fire on: ``hang_attempts=1`` (the default) hangs only the first
    attempt, so the deadline trips, the retry succeeds and the point ends
    up ``retried``; ``hang_attempts=None`` hangs every attempt, so only
    the fallback attempt, which runs with no drill and no deadline, can
    salvage the point.  Faults never fire on the fallback attempt itself.

    Claim faults drive the lease/steal/merge machinery of
    :class:`~repro.experiments.shard.ShardExecutor`.  They key on the
    worker's *claim count* — "the Nth lease this worker successfully
    acquires" — not on point indices, because which worker claims which
    point first is racy across processes; the claim counter is local and
    exact.

    Parameters
    ----------
    hang_point / hang_attempts:
        Index whose attempt sleeps ``hang_seconds`` — long past any sane
        per-point deadline — exercising the ``RetryPolicy.timeout``
        interrupt.  Without a deadline the sleep runs out and the attempt
        raises :class:`InjectedFaultError`.
    hang_seconds:
        How long a hung attempt sleeps (default one hour).
    fail_point / fail_attempts:
        Index whose attempt raises :class:`InjectedFaultError` inside the
        point function, exercising the plain exception-retry branch.
    die_after_claims:
        SIGKILL this shard worker immediately after its Nth successful
        lease acquisition — the held lease never gets a value, its
        heartbeat stops, and a surviving peer must steal the point after
        expiry.
    stall_heartbeat_after:
        After the Nth claim, stop renewing that lease and stall the
        point computation for ``stall_seconds`` (longer than the lease
        TTL in drills) before computing normally.  A live peer steals and
        recomputes the point; this worker's late duplicate record is
        merged benignly (values are bit-identical by construction).
    stall_seconds:
        How long a stalled heartbeat drill sleeps before resuming.
    duplicate_claim:
        Bypass lease acquisition entirely on every point: this worker
        computes points *without* holding leases, manufacturing the
        worst-case duplicate-claim race on purpose.  The merged journal
        must still be exact — same fingerprints, bit-identical values.
    tear_segment:
        After each record this worker appends, also append a torn half
        record to its own segment, exercising quarantine-on-merge in
        every reader.
    """

    hang_point: int | None = None
    hang_attempts: int | None = 1
    hang_seconds: float = 3600.0
    fail_point: int | None = None
    fail_attempts: int | None = 1
    die_after_claims: int | None = None
    stall_heartbeat_after: int | None = None
    stall_seconds: float = 2.0
    duplicate_claim: bool = False
    tear_segment: bool = False

    @property
    def claims_armed(self) -> bool:
        """True when a claim fault (shard workers only) is armed."""
        return (
            self.die_after_claims is not None
            or self.stall_heartbeat_after is not None
            or self.duplicate_claim
            or self.tear_segment
        )

    @property
    def active(self) -> bool:
        """True when any fault is armed."""
        return (
            self.hang_point is not None
            or self.fail_point is not None
            or self.claims_armed
        )

    def point_faults(self) -> "SweepFaultPlan":
        """This plan with every claim fault disarmed."""
        return replace(self, die_after_claims=None,
                       stall_heartbeat_after=None, duplicate_claim=False,
                       tear_segment=False)

    def fires(self, kind: str, index: int, attempt: int) -> bool:
        """True when point fault ``kind`` (hang/fail) fires on
        ``(index, attempt)``."""
        attempts = getattr(self, f"{kind}_attempts")
        return getattr(self, f"{kind}_point") == index and (
            attempts is None or attempt <= attempts
        )

    def dies_now(self, claims: int) -> bool:
        """True when the worker must SIGKILL after its ``claims``-th claim."""
        return claims == self.die_after_claims

    def stalls_now(self, claims: int) -> bool:
        """True when this claim's heartbeat must stall."""
        return claims == self.stall_heartbeat_after

    @classmethod
    def parse(cls, text: str) -> "SweepFaultPlan":
        """Parse one ``--drill`` spec like ``"fail@1"`` (see
        :data:`SWEEP_DRILLS`); raises ``ValueError`` on nonsense."""
        kind, _sep, count_text = text.partition("@")
        if kind not in SWEEP_DRILLS:
            raise ValueError(
                f"unknown drill kind {kind!r} in {text!r} "
                f"(want one of {', '.join(SWEEP_DRILLS)})"
            )
        operand, fields = SWEEP_DRILLS[kind]
        low = 0 if operand == "index" else 1
        try:
            count = int(count_text) if count_text or operand == "index" else 1
        except ValueError:
            raise ValueError(
                f"drill {text!r} must be {kind}@{operand.upper()}, "
                f"{operand} an integer"
            ) from None
        if count < low:
            raise ValueError(f"drill {text!r}: {operand} must be >= {low}")
        return cls(**{
            name: count if value is _COUNT else value
            for name, value in fields.items()
        })


def trigger_point_fault(
    plan: "SweepFaultPlan | None", index: int, attempt: int
) -> None:
    """Fire the armed point fault for ``(index, attempt)``, if any.

    Called at the top of every drilled point attempt.  A hang really
    sleeps, so the attempt's deadline interrupts it; a hang that outlives
    its sleep, and a fail, raise :class:`InjectedFaultError`.
    """
    for kind in ("hang", "fail"):
        if plan is not None and plan.fires(kind, index, attempt):
            if kind == "hang":
                time.sleep(plan.hang_seconds)  # a deadline cuts this short
            raise InjectedFaultError(
                f"injected fault: {kind} of point {index} (attempt {attempt})",
                mode=kind, index=index, attempt=attempt,
            )


# ----------------------------------------------------------------------
# Service-level faults: drills for the overload-hardened serve daemon.
@dataclass(frozen=True)
class ServeFaultPlan:
    """Deterministic service-level faults for overload drills.

    Armed inside the serve daemon's solver pool, these manufacture the
    three ingredients of a metastable collapse — capacity loss, capacity
    *zero*, and error amplification — so the admission controller, the
    retry-budget client, and the closed-loop drill in
    :mod:`repro.serve.drill` all have reproducible triggers:

    * ``slow_seconds`` — every solve sleeps this long before computing
      (models a downstream slowdown: GC pause, cold cache, noisy
      neighbor).  This is the canonical metastability trigger: service
      time exceeding client deadlines turns every request into a timeout
      *plus a retry*.
    * ``stall_seconds`` — solves numbered ``[stall_from, stall_until)``
      sleep this long (default: effectively forever relative to any
      drill), wedging pool slots outright — the abandoned-work drill.
    * ``error_burst`` — solves numbered ``[error_from, error_from +
      error_burst)`` raise :class:`InjectedFaultError` instead of
      computing, exercising the 500-path (which the client must *not*
      retry — failed work that completed quickly is not overload).

    Counting is by the daemon's monotonically increasing solve sequence
    number (1-based), so a drill script can aim a fault window at "the
    next N solves" regardless of thread interleaving.  A plan is
    immutable; the daemon swaps whole plans atomically (via the
    ``/drill`` endpoint) to move between drill phases.
    """

    slow_seconds: float = 0.0
    stall_seconds: float = 0.0
    stall_from: int = 1
    stall_until: int | None = None
    error_burst: int = 0
    error_from: int = 1

    def __post_init__(self):
        if self.slow_seconds < 0.0:
            raise ValueError(f"slow_seconds must be >= 0, got {self.slow_seconds!r}")
        if self.stall_seconds < 0.0:
            raise ValueError(f"stall_seconds must be >= 0, got {self.stall_seconds!r}")
        if self.error_burst < 0:
            raise ValueError(f"error_burst must be >= 0, got {self.error_burst!r}")

    @property
    def active(self) -> bool:
        """True when any service fault is armed."""
        return (
            self.slow_seconds > 0.0
            or self.stall_seconds > 0.0
            or self.error_burst > 0
        )

    def stalls(self, seq: int) -> bool:
        """True when solve ``seq`` (1-based) falls in the stall window."""
        if self.stall_seconds <= 0.0:
            return False
        if seq < self.stall_from:
            return False
        return self.stall_until is None or seq < self.stall_until

    def errors(self, seq: int) -> bool:
        """True when solve ``seq`` falls in the error burst."""
        if self.error_burst <= 0:
            return False
        return self.error_from <= seq < self.error_from + self.error_burst

    @classmethod
    def parse(cls, text: str) -> "ServeFaultPlan":
        """Parse a drill spec like ``"slow-solve@0.25,error-burst@10"``.

        Recognized atoms (comma-separated, whitespace ignored):

        * ``slow-solve@SECONDS`` — arm ``slow_seconds``
        * ``pool-stall@SECONDS`` — arm ``stall_seconds`` (open window)
        * ``error-burst@COUNT`` — arm ``error_burst``
        * ``none`` / empty — no faults (useful to disarm via ``/drill``)
        """
        kwargs: dict = {}
        for atom in text.split(","):
            atom = atom.strip()
            if not atom or atom == "none":
                continue
            name, sep, value = atom.partition("@")
            if not sep:
                raise ValueError(
                    f"bad serve-fault atom {atom!r}: expected NAME@VALUE"
                )
            try:
                if name == "slow-solve":
                    kwargs["slow_seconds"] = float(value)
                elif name == "pool-stall":
                    kwargs["stall_seconds"] = float(value)
                elif name == "error-burst":
                    kwargs["error_burst"] = int(value)
                else:
                    raise ValueError(
                        f"unknown serve-fault {name!r} "
                        "(want slow-solve, pool-stall, or error-burst)"
                    )
            except ValueError as exc:
                raise ValueError(f"bad serve-fault atom {atom!r}: {exc}") from exc
        return cls(**kwargs)


def trigger_serve_fault(plan: "ServeFaultPlan | None", seq: int) -> None:
    """Fire the armed service fault for solve ``seq``, if any.

    Called at the top of every pool-thread solve in the serve daemon.
    Stall wins over error wins over slow when windows overlap (the most
    disruptive fault is the one being drilled).
    """
    if plan is None or not plan.active:
        return
    if plan.stalls(seq):
        time.sleep(plan.stall_seconds)
        return
    if plan.errors(seq):
        raise InjectedFaultError(
            f"injected fault: error burst at solve {seq}",
            mode="error-burst", index=seq, attempt=1,
        )
    if plan.slow_seconds > 0.0:
        time.sleep(plan.slow_seconds)
