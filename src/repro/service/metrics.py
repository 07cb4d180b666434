"""Operational metrics for the retrieval service.

A production retrieval deployment is judged by counters (sessions
created/evicted, cache hits, degradations) and latency distributions
(per-stage p50/p95), not by precision/recall alone.  This module keeps
both behind one thread-safe object with a plain-dict :meth:`snapshot`
so the CLI, benchmarks and external scrapers need no special client.

Everything is in-process and allocation-light: counters are plain
integers under a lock, and each latency stage is one fixed-bucket
:class:`~repro.obs.slo.LatencyHistogram`, the store ``/metrics``
renders too.
"""

from __future__ import annotations

import math
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, Sequence

from ..obs.slo import LatencyHistogram

__all__ = ["percentile", "ServiceMetrics"]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    For exact statistics over samples the caller already holds (a load
    generator's client latencies, batch sizes); service latencies live
    in :class:`~repro.obs.slo.LatencyHistogram` instead.

    The nearest-rank method never interpolates, so the reported value is
    always an observed latency — the convention operators expect from a
    monitoring system.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sequence is undefined")
    # Nearest rank is ceil(n*q/100), 1-based; the ceiling must see the
    # exact product (truncating n*q to int first deflates ranks — e.g.
    # n=601, q=0.5 gave rank 3 instead of 4).
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[rank - 1])


class ServiceMetrics:
    """Thread-safe counters plus per-stage latency histograms.

    ``snapshot()["latency"][stage]`` is the stage histogram's
    :meth:`~repro.obs.slo.LatencyHistogram.snapshot`.

    All mutating methods may be called concurrently from request
    threads; :meth:`snapshot` returns an isolated plain dict safe to
    serialize or print.
    """

    def __init__(self, clock=time.monotonic) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {}
        self._stages: Dict[str, LatencyHistogram] = {}
        self._clock = clock
        self._started = clock()

    @property
    def uptime_seconds(self) -> float:
        """Seconds since construction (or the last :meth:`reset`)."""
        return self._clock() - self._started

    def reset(self) -> None:
        """Drop all counters and latency stages; restart the uptime clock.

        Lets a long-lived service start a fresh measurement window (e.g.
        between benchmark phases) without rebuilding the object shared
        with its :class:`~repro.service.sessions.SessionStore`.
        """
        with self._lock:
            self._counters.clear()
            self._stages.clear()
            self._started = self._clock()

    def increment(self, counter: str, amount: int = 1) -> None:
        """Add ``amount`` to a named counter (created on first use)."""
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + amount

    def counter(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    def observe(self, stage: str, seconds: float) -> None:
        """Record one latency observation (seconds, >= 0) for ``stage``."""
        histogram = self._stages.get(stage)
        if histogram is None:
            with self._lock:
                histogram = self._stages.setdefault(stage, LatencyHistogram())
        histogram.observe(seconds)

    @contextmanager
    def time(self, stage: str) -> Iterator[None]:
        """Context manager timing its body into ``stage``."""
        start = self._clock()
        try:
            yield
        finally:
            self.observe(stage, self._clock() - start)

    @property
    def cache_hit_rate(self) -> float:
        """``hits / (hits + misses)`` over the result cache (0 when cold)."""
        with self._lock:
            hits = self._counters.get("cache_hits", 0)
            misses = self._counters.get("cache_misses", 0)
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> dict:
        """Plain-dict view: counters, latency summaries, derived rates."""
        with self._lock:
            counters = dict(self._counters)
            stages = dict(self._stages)
        latency = {name: histogram.snapshot() for name, histogram in stages.items()}
        hits = counters.get("cache_hits", 0)
        misses = counters.get("cache_misses", 0)
        total = hits + misses
        kernel_hits = counters.get("kernel_cache_hits", 0)
        kernel_misses = counters.get("kernel_cache_misses", 0)
        kernel_total = kernel_hits + kernel_misses
        pruned = counters.get("candidates_pruned", 0)
        refined = counters.get("candidates_refined", 0)
        touched = pruned + refined
        exact = counters.get("results_exact", 0)
        degraded = counters.get("results_degraded", 0)
        results = exact + degraded
        reason_prefix = "degraded_reason_"
        return {
            "counters": counters,
            "latency": latency,
            "uptime_seconds": self.uptime_seconds,
            "cache_hit_rate": hits / total if total else 0.0,
            "kernel_cache_hit_rate": kernel_hits / kernel_total if kernel_total else 0.0,
            # Progressive-scan effectiveness: the exactly-refined share
            # of all ranking candidates (1.0 = no pruning anywhere).
            "refine_fraction": refined / touched if touched else 1.0,
            "candidates_pruned": pruned,
            "degradations": counters.get("degraded_error", 0)
            + counters.get("degraded_deadline", 0),
            # Result-quality provenance: pages served with an explicit
            # coverage/state loss (distinct from path degradations
            # above, which are lossless fallbacks).
            "result_quality": {
                "exact": exact,
                "degraded": degraded,
                "degraded_fraction": degraded / results if results else 0.0,
                "reasons": {
                    name[len(reason_prefix):]: value
                    for name, value in sorted(counters.items())
                    if name.startswith(reason_prefix)
                },
            },
        }
