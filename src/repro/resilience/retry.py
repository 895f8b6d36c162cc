"""Declarative retry policy for the supervised sweep runtime.

A sweep point that fails — a deadline overrun, or an exception inside
the point function — is re-run according to a :class:`RetryPolicy`: up
to ``max_attempts`` total attempts, separated by exponential backoff,
each bounded by an optional per-attempt ``timeout``.  The backoff carries
*deterministic* jitter derived from the point index and attempt number (a
splitmix64-style integer hash — no ``random`` anywhere near the hot
path), so two runs of the same sweep schedule byte-identical delays and
the assembled results stay bit-identical at any ``jobs``.

The final attempt is special: when ``inline_fallback`` is set (the
default) it runs with no injected fault and no deadline, mirroring the
degradation ladder's shape one layer up — the rung that no drill and no
timer can stop.  Deterministic fault plans (:class:`~repro.resilience.
faults.SweepFaultPlan`) never fire on the fallback attempt, so every
drill has a guaranteed recovery rung.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["RetryPolicy", "RetryBudget", "CircuitBreaker", "jitter_fraction"]

_MASK64 = (1 << 64) - 1


def jitter_fraction(index: int, attempt: int) -> float:
    """Deterministic pseudo-uniform fraction in [0, 1) from (index, attempt).

    A splitmix64 finalizer over a linear combination of the inputs: cheap,
    stateless, and stable across processes and Python versions (pure
    integer arithmetic — hash randomization does not touch it).  Public
    because the shard layer reuses it to de-synchronize lease-claim scans
    and contention backoff across workers without any ``random`` state.
    """
    x = (index * 0x9E3779B97F4A7C15 + (attempt + 1) * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return (x >> 11) / float(1 << 53)


@dataclass(frozen=True)
class RetryPolicy:
    """How (and how often) a failed sweep point is re-run.

    Parameters
    ----------
    max_attempts:
        Total attempts per point, the first included.  ``1`` disables
        retries (and the inline fallback) entirely.
    base_delay:
        Backoff before the second attempt, in seconds.
    multiplier:
        Exponential growth factor of the backoff per failed attempt.
    max_delay:
        Hard cap on any single backoff delay, in seconds.
    jitter:
        Fractional spread added on top of the exponential delay;
        ``0.25`` means up to +25 %, deterministically derived from the
        point index and attempt number.
    inline_fallback:
        Run the final attempt with no injected fault and no deadline, so
        a drilled or slow point still completes.
    timeout:
        Per-attempt wall-clock deadline in seconds, or ``None``.  An
        attempt past it is interrupted (``SIGALRM``; main thread only)
        and charged ``timeout``.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.25
    inline_fallback: bool = True
    timeout: float | None = None

    def __post_init__(self):
        if self.max_attempts < 1 or int(self.max_attempts) != self.max_attempts:
            raise ValueError(
                f"max_attempts must be a positive integer, got {self.max_attempts!r}"
            )
        if self.base_delay < 0.0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay!r}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier!r}")
        if self.max_delay < 0.0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay!r}")
        if self.jitter < 0.0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter!r}")
        if self.timeout is not None and not self.timeout > 0.0:
            raise ValueError(f"timeout must be positive seconds, got {self.timeout!r}")

    def is_fallback(self, attempt: int) -> bool:
        """True when ``attempt`` (1-based) is the fallback attempt."""
        return (
            self.inline_fallback
            and self.max_attempts > 1
            and attempt >= self.max_attempts
        )

    def delay(self, attempt: int, index: int = 0) -> float:
        """Backoff (seconds) before re-running ``index`` after its
        ``attempt``-th failure.  Deterministic for a given (index, attempt)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt!r}")
        raw = self.base_delay * self.multiplier ** (attempt - 1)
        raw *= 1.0 + self.jitter * jitter_fraction(index, attempt)
        return min(raw, self.max_delay)


class RetryBudget:
    """Token-bucket retry budget — the fleet-safety half of a retry policy.

    Per-request backoff (:class:`RetryPolicy`) spreads one client's
    retries over time; it does nothing about the *aggregate* retry rate a
    fleet pours onto an overloaded service.  The classic fix (Finagle's
    ``RetryBudget``) is a token bucket fed by successful work: every
    first-attempt request **deposits** ``deposit_per_call`` tokens, every
    retry must **withdraw** ``withdraw_per_retry`` tokens or be refused.
    The steady-state retry rate is then bounded at
    ``deposit_per_call / withdraw_per_retry`` of the request rate
    (10 % by default) no matter how many clients share the service, which
    is exactly the amplification bound that keeps a transient slowdown
    from becoming a metastable retry storm.

    The bucket is purely arithmetic — no wall clock, no randomness — so
    drills that replay the same request sequence observe byte-identical
    budget decisions.  ``min_retries`` seeds the bucket so a cold client
    can still retry its very first failures.

    Thread-safety: instances are confined to one client; share one bucket
    across threads only behind the owner's lock (``ServeClient`` does).
    """

    def __init__(
        self,
        deposit_per_call: float = 0.1,
        withdraw_per_retry: float = 1.0,
        *,
        min_retries: float = 10.0,
        max_tokens: float | None = None,
    ):
        if deposit_per_call < 0.0:
            raise ValueError(f"deposit_per_call must be >= 0, got {deposit_per_call!r}")
        if withdraw_per_retry <= 0.0:
            raise ValueError(
                f"withdraw_per_retry must be > 0, got {withdraw_per_retry!r}"
            )
        if min_retries < 0.0:
            raise ValueError(f"min_retries must be >= 0, got {min_retries!r}")
        self.deposit_per_call = float(deposit_per_call)
        self.withdraw_per_retry = float(withdraw_per_retry)
        if max_tokens is None:
            max_tokens = max(100.0 * withdraw_per_retry, min_retries * withdraw_per_retry)
        self.max_tokens = float(max_tokens)
        self._tokens = min(float(min_retries) * self.withdraw_per_retry, self.max_tokens)
        self.deposits = 0
        self.withdrawals = 0
        self.refusals = 0

    @property
    def tokens(self) -> float:
        """Current bucket contents, in withdraw units × ``withdraw_per_retry``."""
        return self._tokens

    def deposit(self) -> None:
        """Record one first-attempt request (grows the retry allowance)."""
        self._tokens = min(self._tokens + self.deposit_per_call, self.max_tokens)
        self.deposits += 1

    def try_withdraw(self) -> bool:
        """Spend one retry's worth of tokens; False = retry refused.

        The comparison carries a tiny epsilon so repeated-decimal
        deposits (ten 0.1-deposits fund exactly one 1.0-withdrawal)
        don't lose a retry to binary-float accumulation.
        """
        if self._tokens >= self.withdraw_per_retry - 1e-9:
            self._tokens = max(0.0, self._tokens - self.withdraw_per_retry)
            self.withdrawals += 1
            return True
        self.refusals += 1
        return False

    def stats(self) -> dict:
        """Counters for drill assertions and ``/status``-style reports."""
        return {
            "tokens": self._tokens,
            "deposits": self.deposits,
            "withdrawals": self.withdrawals,
            "refusals": self.refusals,
        }


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed → open → half-open).

    While :class:`RetryBudget` bounds how much *extra* load retries add,
    the breaker bounds how long a client keeps offering *any* load to a
    service that is refusing everything.  After ``failure_threshold``
    consecutive failures the circuit opens: requests fail locally
    (:class:`~repro.resilience.errors.CircuitOpenError`) without touching
    the wire for ``cooldown`` seconds.  The first request after cooldown
    is the half-open probe; success closes the circuit, failure re-opens
    it for another full cooldown.

    Time is injected (``clock`` callable) rather than read from the wall
    so tests and drills can drive the breaker deterministically; the
    default is ``time.monotonic``.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        cooldown: float = 1.0,
        *,
        clock=None,
    ):
        if failure_threshold < 1 or int(failure_threshold) != failure_threshold:
            raise ValueError(
                f"failure_threshold must be a positive integer, got {failure_threshold!r}"
            )
        if cooldown < 0.0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown!r}")
        self.failure_threshold = int(failure_threshold)
        self.cooldown = float(cooldown)
        self._clock = clock if clock is not None else time.monotonic
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self.opens = 0

    @property
    def state(self) -> str:
        """Current state, resolving an elapsed cooldown to ``half-open``."""
        if self._state == self.OPEN and self._opened_at is not None:
            if self._clock() - self._opened_at >= self.cooldown:
                return self.HALF_OPEN
        return self._state

    def cooldown_remaining(self) -> float:
        """Seconds until a half-open probe is allowed (0 when not open)."""
        if self._state != self.OPEN or self._opened_at is None:
            return 0.0
        return max(0.0, self.cooldown - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """May a request be sent now?  Half-open admits exactly one probe."""
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN:
            # Claim the probe: re-arm the open timer so concurrent callers
            # (and an immediately-failing probe) wait out a fresh cooldown.
            self._opened_at = self._clock()
            return True
        return False

    def record_success(self) -> None:
        """A request completed: close the circuit, reset the failure run."""
        self._state = self.CLOSED
        self._consecutive_failures = 0
        self._opened_at = None

    def record_failure(self) -> None:
        """A request failed; open the circuit at the threshold."""
        self._consecutive_failures += 1
        if self._state == self.OPEN or (
            self._consecutive_failures >= self.failure_threshold
        ):
            if self._state != self.OPEN:
                self.opens += 1
            self._state = self.OPEN
            self._opened_at = self._clock()

    def stats(self) -> dict:
        """State snapshot for drill assertions and client reports."""
        return {
            "state": self.state,
            "consecutive_failures": self._consecutive_failures,
            "opens": self.opens,
            "cooldown_remaining": self.cooldown_remaining(),
        }
