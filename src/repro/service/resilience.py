"""Retry and deadline discipline for the service's hot paths.

Degradation (:mod:`repro.service.degrade`) decides *which path* serves
a query; this module decides *how hard each stage fights* before giving
up: bounded exponential-backoff retries for idempotent work (kernel
compilation, per-shard scans, checkpoint reads) and a per-request
:class:`DeadlineBudget` that caps the total time spent fighting.

Everything retried here is a pure function of immutable inputs —
compiling a query, scanning a read-only shard, reading a checkpoint
file — so a retry can never double-apply an effect and recomputes
byte-identical data.  Retrying non-idempotent stages (feedback absorption,
eviction) is deliberately *not* offered.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Tuple, Type

__all__ = [
    "RetryPolicy",
    "DeadlineBudget",
    "ResiliencePolicy",
    "retry_call",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff for one idempotent stage.

    Attributes:
        max_attempts: total tries (1 = no retries).
        base_delay_s: sleep before the first retry.
        multiplier: backoff growth factor per retry.
        max_delay_s: backoff ceiling.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.005
    multiplier: float = 2.0
    max_delay_s: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be at least 1, got {self.max_attempts}")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s must be non-negative, got {self.base_delay_s}")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be at least 1, got {self.multiplier}")
        if self.max_delay_s < 0:
            raise ValueError(f"max_delay_s must be non-negative, got {self.max_delay_s}")

    def delay_for(self, attempt: int) -> float:
        """Backoff before retrying after the ``attempt``-th failure (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt is 1-based, got {attempt}")
        return min(self.base_delay_s * self.multiplier ** (attempt - 1), self.max_delay_s)


class DeadlineBudget:
    """Wall-clock budget for one request's recovery machinery.

    The budget is consulted, never enforced mid-flight: in-progress work
    is not cancelled (results already computed are kept), but once the
    budget is spent no *further* retries are launched — the
    request finishes with whatever coverage it has, explicitly marked.

    ``seconds=None`` means unlimited (the default service behaviour).
    """

    def __init__(
        self,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and seconds <= 0:
            raise ValueError(f"deadline seconds must be positive, got {seconds}")
        self.seconds = seconds
        self._clock = clock
        self._started = clock()

    @property
    def elapsed(self) -> float:
        """Seconds since the budget started."""
        return self._clock() - self._started

    @property
    def remaining(self) -> float:
        """Seconds left (``inf`` when unlimited; clamped at 0)."""
        if self.seconds is None:
            return float("inf")
        return max(0.0, self.seconds - self.elapsed)

    @property
    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self.seconds is not None and self.elapsed >= self.seconds


@dataclass(frozen=True)
class ResiliencePolicy:
    """The service-level knobs: one retry policy and a request deadline.

    Attributes:
        retry: backoff policy shared by the idempotent stages (compile,
            shard scan; checkpoint restore uses the store's own copy).
        request_deadline_s: per-request budget for recovery work;
            ``None`` (default) never gives up early.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    request_deadline_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.request_deadline_s is not None and self.request_deadline_s <= 0:
            raise ValueError(
                f"request_deadline_s must be positive, got {self.request_deadline_s}"
            )

    def budget(self, clock: Callable[[], float] = time.monotonic) -> DeadlineBudget:
        """A fresh per-request budget under this policy."""
        return DeadlineBudget(self.request_deadline_s, clock=clock)


def retry_call(
    fn: Callable[[], object],
    policy: RetryPolicy,
    *,
    deadline: Optional[DeadlineBudget] = None,
    retryable: Tuple[Type[BaseException], ...] = (Exception,),
    sleep: Callable[[float], None] = time.sleep,
    on_retry: Optional[Callable[[int, BaseException], None]] = None,
):
    """Call ``fn`` with bounded exponential-backoff retries.

    Only for idempotent ``fn``.  Gives up — re-raising the last error —
    when attempts are exhausted or the deadline budget is spent; the
    backoff sleep itself is clamped to the remaining budget so a retry
    never waits past the deadline.

    Args:
        fn: zero-argument callable to (re)try.
        policy: the backoff schedule.
        deadline: optional per-request budget; expiry stops retrying.
        retryable: exception types worth another attempt (anything else
            propagates immediately).  An error carrying a truthy
            ``permanent`` attribute (e.g.
            :class:`~repro.store.StoreBlockCorrupt`) also propagates
            immediately — retrying it cannot succeed, so the backoff
            budget is not spent on it.
        sleep: injectable sleep (tests replay backoff instantly).
        on_retry: ``(attempt, error)`` callback fired before each retry
            (metrics/trace hook).
    """
    attempt = 1
    while True:
        try:
            return fn()
        except retryable as error:
            if getattr(error, "permanent", False):
                raise
            if attempt >= policy.max_attempts or (deadline is not None and deadline.expired):
                raise
            if on_retry is not None:
                on_retry(attempt, error)
            delay = policy.delay_for(attempt)
            if deadline is not None:
                delay = min(delay, deadline.remaining)
            if delay > 0:
                sleep(delay)
            attempt += 1
