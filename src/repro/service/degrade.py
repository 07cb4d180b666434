"""Graceful degradation policy for the query path.

The primary ranking path goes through the :class:`~repro.index.
tree.HybridTree` exact search with the cross-iteration node
cache — the fast path when it behaves.  Under load, with a corrupted
index, or with a query whose contours force the tree to open most of
its nodes, that path can blow its latency budget or raise outright.
The service never fails such a query: it falls back to the exact
sharded linear scan (identical results, predictable cost) and records
the downgrade.

:class:`DegradationPolicy` is the static configuration; one
:class:`SessionGuard` per session tracks consecutive soft-deadline
misses and trips the session onto the fallback path so a query mix
that is pathological for the tree stops paying for it every round.
Feedback resets the guard (a refined query has a new shape, so the
tree deserves another chance) unless the trip was caused by an error.

Degrading *paths* is lossless — the fallback scan is exact.  When the
service loses coverage or state instead (a shard dropped after its
retry budget, a session rebuilt from a corrupt checkpoint), the
response says so explicitly through the :class:`ResultQuality`
provenance re-exported here (it lives next to
:class:`~repro.system.ResultPage`, whose field it is); the retry /
deadline machinery itself is in
:mod:`repro.service.resilience`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..system import EXACT_QUALITY, ResultQuality

__all__ = ["DegradationPolicy", "SessionGuard", "ResultQuality", "EXACT_QUALITY"]


@dataclass(frozen=True)
class DegradationPolicy:
    """When and how the index path is abandoned.

    Attributes:
        soft_deadline_s: per-query latency budget for the index search;
            ``None`` disables deadline-based degradation.  The deadline
            is *soft*: an in-flight search is never cancelled, but a
            miss counts a strike against the session.
        trip_after: consecutive deadline strikes before the session is
            pinned to the linear-scan fallback (the exact sharded
            scan: identical results at predictable cost).
    """

    soft_deadline_s: Optional[float] = None
    trip_after: int = 1

    def __post_init__(self) -> None:
        if self.soft_deadline_s is not None and self.soft_deadline_s <= 0:
            raise ValueError(
                f"soft_deadline_s must be positive, got {self.soft_deadline_s}"
            )
        if self.trip_after < 1:
            raise ValueError(f"trip_after must be at least 1, got {self.trip_after}")


class SessionGuard:
    """Per-session degradation state machine.

    The guard is consulted before every ranking (:attr:`active` — use
    the fallback?) and informed after every index search
    (:meth:`record_elapsed` / :meth:`record_error`).
    """

    def __init__(self, policy: DegradationPolicy) -> None:
        self.policy = policy
        self.strikes = 0
        self._tripped_by: Optional[str] = None

    @property
    def active(self) -> bool:
        """True when the session should bypass the index entirely."""
        return self._tripped_by is not None

    @property
    def tripped_by(self) -> Optional[str]:
        """``"error"``, ``"deadline"`` or ``None`` (not tripped)."""
        return self._tripped_by

    def record_error(self) -> None:
        """The index search raised; pin the session to the fallback."""
        self._tripped_by = "error"

    def record_elapsed(self, seconds: float) -> bool:
        """Score one completed index search against the soft deadline.

        Returns:
            True when this observation was a deadline miss (the caller
            records the ``degraded_deadline`` metric exactly once per
            miss).
        """
        deadline = self.policy.soft_deadline_s
        if deadline is None or seconds <= deadline:
            self.strikes = 0
            return False
        self.strikes += 1
        if self.strikes >= self.policy.trip_after and self._tripped_by is None:
            self._tripped_by = "deadline"
        return True

    def reset_for_new_query(self) -> None:
        """Give the index another chance after feedback reshapes the query.

        An error trip is sticky — a broken index does not heal because
        the query moved.
        """
        if self._tripped_by == "deadline":
            self._tripped_by = None
        self.strikes = 0
