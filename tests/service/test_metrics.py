"""ServiceMetrics: counters, percentiles, snapshots, thread safety."""

from __future__ import annotations

import threading

import pytest

from repro.service import ServiceMetrics, percentile


class TestPercentile:
    def test_median_of_odd(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_p95_is_an_observed_value(self):
        values = [float(i) for i in range(1, 101)]
        assert percentile(values, 95.0) == 95.0

    def test_extremes(self):
        values = [5.0, 1.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 5.0

    def test_single_value(self):
        assert percentile([7.0], 95.0) == 7.0

    def test_single_value_all_q(self):
        for q in (0.0, 0.5, 50.0, 99.9, 100.0):
            assert percentile([7.0], q) == 7.0

    def test_fractional_q_does_not_truncate_rank(self):
        # Regression: ceil used to be applied to int(n*q), so the
        # fractional part of the product was lost before rounding up.
        # n=601, q=0.5 -> n*q/100 = 3.005 -> nearest rank 4, but the
        # truncated form computed ceil(int(300.5)/100) = 3.
        values = [float(i) for i in range(1, 602)]
        assert percentile(values, 0.5) == 4.0

    def test_fractional_q_small_sequence(self):
        values = [1.0, 2.0, 3.0, 4.0]
        # n*q/100 = 0.1 -> rank max(1, ceil(0.1)) = 1.
        assert percentile(values, 2.5) == 1.0
        # n*q/100 = 2.04 -> rank 3.
        assert percentile(values, 51.0) == 3.0

    def test_q_zero_returns_minimum(self):
        assert percentile([9.0, 4.0, 6.0], 0.0) == 4.0

    def test_q_hundred_returns_maximum(self):
        assert percentile([9.0, 4.0, 6.0], 100.0) == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)


class TestServiceMetrics:
    def test_counters_default_to_zero(self):
        assert ServiceMetrics().counter("nonexistent") == 0

    def test_increment_with_amount(self):
        metrics = ServiceMetrics()
        metrics.increment("node_accesses", 17)
        metrics.increment("node_accesses", 3)
        assert metrics.counter("node_accesses") == 20

    def test_timer_context_observes_stage(self):
        # First tick is consumed by the constructor's uptime clock.
        ticks = iter([0.0, 1.0, 2.5, 3.0])  # the last feeds snapshot's uptime
        metrics = ServiceMetrics(clock=lambda: next(ticks))
        with metrics.time("query"):
            pass
        summary = metrics.snapshot()["latency"]["query"]
        assert summary["count"] == 1
        assert summary["max"] == pytest.approx(1.5)
        # Percentiles are bucket upper bounds: 1.5 s lands in le=2.5.
        assert summary["p50"] == pytest.approx(2.5)

    def test_summary_tracks_all_observations(self):
        metrics = ServiceMetrics()
        for value in (0.1, 0.2, 0.3):
            metrics.observe("query", value)
        summary = metrics.snapshot()["latency"]["query"]
        assert {"count", "mean", "p50", "p95", "max"} <= set(summary)
        assert summary["count"] == 3
        assert summary["mean"] == pytest.approx(0.2)
        assert summary["p50"] == pytest.approx(0.25)
        assert summary["p95"] == pytest.approx(0.5)
        assert summary["max"] == pytest.approx(0.3)

    def test_count_and_mean_cover_the_whole_lifetime(self):
        """No sample ages out: count, mean and max are exact over every
        observation, however many there are."""
        metrics = ServiceMetrics()
        for _ in range(10_000):
            metrics.observe("query", 0.001)
        metrics.observe("query", 2.0)
        summary = metrics.snapshot()["latency"]["query"]
        assert summary["count"] == 10_001
        assert summary["mean"] == pytest.approx((10.0 + 2.0) / 10_001)
        assert summary["max"] == pytest.approx(2.0)
        assert summary["p50"] == pytest.approx(0.001)

    def test_negative_latency_rejected(self):
        metrics = ServiceMetrics()
        with pytest.raises(ValueError):
            metrics.observe("query", -0.1)

    def test_cache_hit_rate(self):
        metrics = ServiceMetrics()
        assert metrics.cache_hit_rate == 0.0
        metrics.increment("cache_hits", 3)
        metrics.increment("cache_misses", 1)
        assert metrics.cache_hit_rate == pytest.approx(0.75)

    def test_snapshot_is_plain_and_isolated(self):
        metrics = ServiceMetrics()
        metrics.increment("queries")
        snapshot = metrics.snapshot()
        snapshot["counters"]["queries"] = 99
        assert metrics.counter("queries") == 1
        assert set(snapshot) == {
            "counters",
            "latency",
            "uptime_seconds",
            "cache_hit_rate",
            "kernel_cache_hit_rate",
            "refine_fraction",
            "candidates_pruned",
            "degradations",
            "result_quality",
        }

    def test_uptime_tracks_clock(self):
        ticks = iter([10.0, 17.5])
        metrics = ServiceMetrics(clock=lambda: next(ticks))
        assert metrics.uptime_seconds == pytest.approx(7.5)

    def test_reset_clears_state_and_restarts_uptime(self):
        ticks = iter([0.0, 1.0, 3.0, 50.0, 51.0])
        metrics = ServiceMetrics(clock=lambda: next(ticks))
        metrics.increment("queries", 5)
        with metrics.time("query"):  # consumes ticks 1.0 and 3.0
            pass
        metrics.reset()  # restarts uptime at tick 50.0
        assert metrics.counter("queries") == 0
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {}
        assert snapshot["latency"] == {}
        assert snapshot["uptime_seconds"] == pytest.approx(1.0)

    def test_degradations_aggregates_both_kinds(self):
        metrics = ServiceMetrics()
        metrics.increment("degraded_error", 2)
        metrics.increment("degraded_deadline", 3)
        assert metrics.snapshot()["degradations"] == 5

    def test_concurrent_increments_do_not_lose_updates(self):
        metrics = ServiceMetrics()

        def bump():
            for _ in range(1000):
                metrics.increment("hits")
                metrics.observe("stage", 0.001)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert metrics.counter("hits") == 8000
        assert metrics.snapshot()["latency"]["stage"]["count"] == 8000

    def test_snapshot_races_mutators_without_error(self):
        """Racing observe/increment/snapshot threads never raise, and
        counters sum exactly once the mutators finish."""
        metrics = ServiceMetrics()
        stop = threading.Event()
        errors = []

        def mutate(counter):
            try:
                for i in range(2000):
                    metrics.increment(counter)
                    metrics.increment("shared", 2)
                    metrics.observe("stage", 0.001 * (i % 7 + 1))
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def scrape():
            try:
                while not stop.is_set():
                    snapshot = metrics.snapshot()
                    assert isinstance(snapshot["counters"], dict)
                    assert snapshot["uptime_seconds"] >= 0.0
                    latency = snapshot["latency"].get("stage")
                    if latency is not None:
                        assert latency["p50"] > 0.0
                        assert latency["count"] >= 1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        mutators = [
            threading.Thread(target=mutate, args=(f"c{i}",)) for i in range(4)
        ]
        scrapers = [threading.Thread(target=scrape) for _ in range(2)]
        for thread in mutators + scrapers:
            thread.start()
        for thread in mutators:
            thread.join()
        stop.set()
        for thread in scrapers:
            thread.join()
        assert errors == []
        assert metrics.counter("shared") == 4 * 2000 * 2
        for i in range(4):
            assert metrics.counter(f"c{i}") == 2000
        assert metrics.snapshot()["latency"]["stage"]["count"] == 4 * 2000
