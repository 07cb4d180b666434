"""Latency layer: fixed-bucket histograms and error-budget burn rates.

:class:`LatencyHistogram` is the service's only latency store (stage
latencies, per-tenant queue waits, SLO request durations); every
percentile shown anywhere is :func:`quantile` over its counts.

* :class:`LatencyHistogram` — classic fixed-bucket (Prometheus
  ``_bucket``/``_sum``/``_count``) latency histogram.  Buckets are
  log-spaced over 0.1 ms – 10 s (:data:`DEFAULT_BUCKETS`), one constant
  ladder shared by every histogram, so histograms from different
  stages, threads or processes aggregate by plain addition.
* :class:`SLOTracker` — one histogram per ``(route, tenant, quality)``
  where route is ``query`` or ``feedback`` (one observation per served
  page) and quality is the request's
  :class:`~repro.system.ResultQuality` level (``exact`` / ``degraded``)
  or ``error`` — a degraded page is a different latency population from
  an exact one and must not pollute its percentiles.
* :class:`SLObjective` — an explicit target ("99% of requests good")
  with *good* defined as non-error and, when ``latency_threshold_s`` is
  set, at/under the threshold.  Per-objective sliding windows yield the
  **error-budget burn rate**::

      burn_rate = bad_fraction(window) / (1 - target)

  A burn rate of 1.0 spends the budget exactly at the sustainable pace;
  14.4 (the classic fast-burn page threshold) exhausts a 30-day budget
  in ~2 days.  Two windows (5 min, 1 h by default) give the fast/slow
  alerting pair.  Windows count good/bad requests per clock second, so
  a window holds at most one slot per second of its horizon whatever
  the request rate.

Everything is in-process, lock-protected, and cheap: one ``observe``
call is a bisect plus a few counter increments — it runs on *every*
request (unlike tracing, there is no sampling; an SLO computed over a
sample is not an SLO).
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_BUCKETS",
    "LatencyHistogram",
    "SLObjective",
    "SLOTracker",
    "quantile",
]

#: Fixed log-spaced latency bucket upper bounds in seconds (an implicit
#: ``+Inf`` bucket is always appended at exposition time).
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


def quantile(buckets: Sequence[float], cumulative: Sequence[int], q: float) -> float:
    """Bucket-upper-bound estimate of the ``q`` quantile (``q`` in [0, 1]).

    ``cumulative`` holds one cumulative count per bound in ``buckets``
    plus a last entry for ``+Inf`` (the total).  The nearest rank is
    ``max(1, ceil(q * n))``, so ``q = 0`` reads the first non-empty
    bucket.  A quantile in ``+Inf`` reads the last finite bound; an
    empty histogram reads ``0.0``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    total = cumulative[-1] if cumulative else 0
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    for bound, seen in zip(buckets, cumulative):
        if seen >= rank:
            return bound
    return buckets[-1]


class LatencyHistogram:
    """A classic cumulative-bucket latency histogram on :data:`DEFAULT_BUCKETS`.

    Stores per-bucket counts internally; snapshots emit Prometheus-style
    *cumulative* counts (the implicit ``+Inf`` bucket equals ``count``).
    One shared ladder means histograms merge by adding counts.
    """

    __slots__ = ("_counts", "_sum", "_max", "_lock")

    def __init__(self) -> None:
        self._counts = [0] * (len(DEFAULT_BUCKETS) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._max = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one latency observation (seconds, finite and >= 0)."""
        value = float(value)
        if not 0.0 <= value < math.inf:
            raise ValueError(f"latency must be finite and non-negative, got {value}")
        index = bisect_left(DEFAULT_BUCKETS, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            if value > self._max:
                self._max = value

    def _cumulative(self) -> Tuple[List[int], float, float]:
        with self._lock:
            counts = list(self._counts)
            observed_sum, observed_max = self._sum, self._max
        return list(accumulate(counts)), observed_sum, observed_max

    def quantile(self, q: float) -> float:
        """Bucket-upper-bound estimate of the ``q`` quantile (:func:`quantile`)."""
        cumulative, _, _ = self._cumulative()
        return quantile(DEFAULT_BUCKETS, cumulative, q)

    def snapshot(self) -> Dict[str, Any]:
        """Cumulative-bucket form (the Prometheus exposition input) plus
        ``mean``, bucket-bound ``p50``/``p95`` and ``max``, from one
        consistent read."""
        cumulative, observed_sum, observed_max = self._cumulative()
        count = cumulative[-1]
        return {
            "buckets": list(DEFAULT_BUCKETS),
            "counts": cumulative[:-1],  # parallel to buckets; +Inf == count
            "sum": observed_sum,
            "count": count,
            "mean": observed_sum / count if count else 0.0,
            "p50": quantile(DEFAULT_BUCKETS, cumulative, 0.5),
            "p95": quantile(DEFAULT_BUCKETS, cumulative, 0.95),
            "max": observed_max,
        }


@dataclass(frozen=True)
class SLObjective:
    """One explicit service-level objective.

    Attributes:
        name: objective identifier (``"availability"``, ``"latency"``).
        target: the good-request fraction promised (``0.99`` → 1% error
            budget).
        latency_threshold_s: when set, a request slower than this is
            *bad* even if it succeeded; ``None`` judges errors only.
        description: free-text shown in ``/debug/slo`` and ``cli obs slo``.
    """

    name: str
    target: float
    latency_threshold_s: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")

    def is_good(self, duration_s: float, error: bool) -> bool:
        """Whether one request counts against the error budget."""
        if error:
            return False
        if self.latency_threshold_s is not None:
            return duration_s <= self.latency_threshold_s
        return True


#: Default objectives: availability (three nines) and a p95-style
#: latency objective (95% of requests under 500 ms).
DEFAULT_OBJECTIVES: Tuple[SLObjective, ...] = (
    SLObjective(
        name="availability",
        target=0.999,
        description="99.9% of requests complete without error",
    ),
    SLObjective(
        name="latency",
        target=0.95,
        latency_threshold_s=0.5,
        description="95% of requests complete in under 500 ms",
    ),
)

#: Default burn-rate windows in seconds: the fast/slow alerting pair.
DEFAULT_WINDOWS: Tuple[float, ...] = (300.0, 3600.0)


@dataclass
class _Window:
    """One objective's sliding good/bad record as per-second counters.

    ``slots`` holds ``[second, good, bad]`` for each whole clock second
    that saw a request, oldest first, so a window never holds more than
    ``ceil(horizon_s)`` slots however many requests it covers.
    """

    horizon_s: float
    slots: Deque[List[int]] = field(default_factory=deque)

    def add(self, second: int, good: bool) -> None:
        slots = self.slots
        if not slots or slots[-1][0] != second:
            slots.append([second, 0, 0])
            self.prune(second)
        slots[-1][1 if good else 2] += 1

    def prune(self, second: int) -> None:
        """Drop slots that lie wholly outside the last ``horizon_s`` seconds."""
        cutoff = second - self.horizon_s
        slots = self.slots
        while slots and slots[0][0] <= cutoff:
            slots.popleft()

    def totals(self, second: int) -> Tuple[int, int]:
        """``(total, bad)`` over the window ending at ``second``."""
        self.prune(second)
        good = sum(slot[1] for slot in self.slots)
        bad = sum(slot[2] for slot in self.slots)
        return good + bad, bad


class SLOTracker:
    """Per-route/tenant/quality histograms plus objective burn rates.

    Args:
        objectives: the SLOs to judge every request against
            (:data:`DEFAULT_OBJECTIVES` when omitted).
        windows: sliding-window horizons in seconds for burn rates
            (:data:`DEFAULT_WINDOWS` when omitted).
        clock: wall-ish time source, injectable for tests.
    """

    def __init__(
        self,
        objectives: Optional[Tuple[SLObjective, ...]] = None,
        windows: Optional[Tuple[float, ...]] = None,
        clock=time.monotonic,
    ) -> None:
        self.objectives = tuple(objectives) if objectives is not None else DEFAULT_OBJECTIVES
        self.windows = tuple(windows) if windows is not None else DEFAULT_WINDOWS
        if not self.windows or any(horizon <= 0 for horizon in self.windows):
            raise ValueError(f"windows must be positive, got {self.windows}")
        names = [objective.name for objective in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective names: {names}")
        self._clock = clock
        self._lock = threading.Lock()
        self._histograms: Dict[Tuple[str, str, str], LatencyHistogram] = {}
        self._windows: Dict[str, List[_Window]] = {
            objective.name: [_Window(horizon_s=horizon) for horizon in self.windows]
            for objective in self.objectives
        }

    def _second(self) -> int:
        return math.floor(self._clock())

    def observe(
        self,
        route: str,
        duration_s: float,
        tenant: str = "default",
        exact: bool = True,
        error: bool = False,
    ) -> None:
        """Record one finished request.

        Args:
            route: logical route (``"query"`` or ``"feedback"``).
            duration_s: wall-clock service time in seconds.
            tenant: owning tenant label.
            exact: the page's :class:`~repro.system.ResultQuality` —
                ``False`` labels the observation ``degraded``.
            error: the request failed; labeled ``error`` regardless of
                ``exact`` and always bad for every objective.
        """
        quality = "error" if error else ("exact" if exact else "degraded")
        key = (str(route), str(tenant), quality)
        second = self._second()
        with self._lock:
            histogram = self._histograms.get(key)
            if histogram is None:
                histogram = self._histograms[key] = LatencyHistogram()
            for objective in self.objectives:
                good = objective.is_good(duration_s, error)
                for window in self._windows[objective.name]:
                    window.add(second, good)
        histogram.observe(duration_s)

    def _window_rows(self) -> Dict[str, Dict[str, Dict[str, Any]]]:
        """``{objective: {"300s": {total, bad, bad_fraction, burn_rate}}}``.

        An empty window burns at 0.0 (no requests spend no budget).
        """
        second = self._second()
        result: Dict[str, Dict[str, Dict[str, Any]]] = {}
        with self._lock:
            for objective in self.objectives:
                rows: Dict[str, Dict[str, Any]] = {}
                for window in self._windows[objective.name]:
                    total, bad = window.totals(second)
                    bad_fraction = bad / total if total else 0.0
                    rows[f"{window.horizon_s:g}s"] = {
                        "total": total,
                        "bad": bad,
                        "bad_fraction": bad_fraction,
                        "burn_rate": bad_fraction / (1.0 - objective.target),
                    }
                result[objective.name] = rows
        return result

    def burn_rates(self) -> Dict[str, Dict[str, float]]:
        """``{objective: {"300s": burn_rate, ...}}`` right now."""
        return {
            name: {window: row["burn_rate"] for window, row in rows.items()}
            for name, rows in self._window_rows().items()
        }

    def snapshot(self) -> Dict[str, Any]:
        """The full SLO state: exposition + ``/debug/slo`` payload."""
        with self._lock:
            histograms = sorted(self._histograms.items())
        histogram_rows = [
            {
                "route": route,
                "tenant": tenant,
                "quality": quality,
                **histogram.snapshot(),
            }
            for (route, tenant, quality), histogram in histograms
        ]
        windows = self._window_rows()
        objective_rows = [
            {
                "name": objective.name,
                "target": objective.target,
                "latency_threshold_s": objective.latency_threshold_s,
                "description": objective.description,
                "windows": windows[objective.name],
            }
            for objective in self.objectives
        ]
        return {"histograms": histogram_rows, "objectives": objective_rows}
