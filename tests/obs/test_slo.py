"""SLO layer: histogram buckets, burn-rate math, Prometheus families."""

from __future__ import annotations

import math

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    LatencyHistogram,
    SLObjective,
    SLOTracker,
    prometheus_text,
)
from repro.obs.slo import quantile

from .test_prometheus import parse_exposition


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def bucket_counts(histogram):
    """``{bound: cumulative count}`` of one histogram snapshot."""
    snapshot = histogram.snapshot()
    return dict(zip(snapshot["buckets"], snapshot["counts"]))


class TestLatencyHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        histogram = LatencyHistogram()
        for value in (0.005, 0.05, 0.5, 50.0):
            histogram.observe(value)
        counts = bucket_counts(histogram)
        assert [counts[bound] for bound in (0.0025, 0.005, 0.05, 0.5, 10.0)] == [
            0,
            1,
            2,
            3,
            3,  # 50 s lands in the implicit +Inf bucket
        ]
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 4
        assert snapshot["sum"] == pytest.approx(50.555)

    def test_boundary_value_counts_in_its_bucket(self):
        """le semantics: an observation equal to a bound belongs to it."""
        histogram = LatencyHistogram()
        histogram.observe(0.1)
        counts = bucket_counts(histogram)
        assert (counts[0.05], counts[0.1]) == (0, 1)

    def test_quantile_interpolates_from_buckets(self):
        histogram = LatencyHistogram()
        for _ in range(99):
            histogram.observe(0.005)
        histogram.observe(0.5)
        assert histogram.quantile(0.5) <= 0.01
        assert histogram.quantile(0.999) > 0.1

    def test_default_buckets_are_sorted_and_positive(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert all(bound > 0 for bound in DEFAULT_BUCKETS)

    def test_quantile_zero_is_the_first_non_empty_bucket(self):
        histogram = LatencyHistogram()
        for _ in range(10):
            histogram.observe(0.3)
        assert histogram.quantile(0.0) == 0.5
        assert histogram.quantile(1.0) == 0.5

    def test_sub_millisecond_latencies_resolve_below_one_millisecond(self):
        histogram = LatencyHistogram()
        histogram.observe(0.0002)
        assert histogram.quantile(0.5) == 0.00025

    @pytest.mark.parametrize("value", [-0.001, math.nan, math.inf, -math.inf])
    def test_negative_and_non_finite_values_rejected(self, value):
        histogram = LatencyHistogram()
        histogram.observe(0.01)
        with pytest.raises(ValueError):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 1
        assert snapshot["sum"] == pytest.approx(0.01)

    def test_empty_histogram_reads_zero(self):
        histogram = LatencyHistogram()
        assert histogram.quantile(0.5) == 0.0
        snapshot = histogram.snapshot()
        assert (snapshot["count"], snapshot["mean"], snapshot["p95"], snapshot["max"]) == (
            0,
            0.0,
            0.0,
            0.0,
        )

    def test_snapshot_carries_the_stats_summary(self):
        histogram = LatencyHistogram()
        for value in (0.002, 0.004, 0.3):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["mean"] == pytest.approx(0.102)
        assert snapshot["max"] == pytest.approx(0.3)
        assert snapshot["p50"] == histogram.quantile(0.5) == 0.005
        assert snapshot["p95"] == histogram.quantile(0.95) == 0.5


class TestQuantileFunction:
    def test_matches_the_histogram_method(self):
        histogram = LatencyHistogram()
        for value in (0.0001, 0.002, 0.002, 0.07, 3.0, 30.0):
            histogram.observe(value)
        snapshot = histogram.snapshot()
        cumulative = [*snapshot["counts"], snapshot["count"]]
        for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert quantile(DEFAULT_BUCKETS, cumulative, q) == histogram.quantile(q)

    def test_nearest_rank_is_ceil_of_q_times_n(self):
        buckets = (1.0, 2.0, 3.0)
        cumulative = [1, 2, 4, 4]  # one at le=1, one at le=2, two at le=3
        assert quantile(buckets, cumulative, 0.25) == 1.0  # rank 1
        assert quantile(buckets, cumulative, 0.26) == 2.0  # rank 2
        assert quantile(buckets, cumulative, 0.51) == 3.0  # rank 3

    def test_inf_bucket_reads_the_last_finite_bound(self):
        assert quantile((1.0, 2.0), [0, 0, 3], 0.5) == 2.0

    def test_empty_reads_zero_and_q_is_checked(self):
        assert quantile((1.0,), [0, 0], 0.5) == 0.0
        with pytest.raises(ValueError):
            quantile((1.0,), [1, 1], 1.5)


class TestSLObjective:
    def test_availability_objective_judges_errors(self):
        objective = SLObjective(name="availability", target=0.999)
        assert objective.is_good(10.0, error=False)
        assert not objective.is_good(0.001, error=True)

    def test_latency_objective_judges_threshold(self):
        objective = SLObjective(
            name="latency", target=0.95, latency_threshold_s=0.5
        )
        assert objective.is_good(0.4, error=False)
        assert not objective.is_good(0.6, error=False)
        assert not objective.is_good(0.1, error=True)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 2.0])
    def test_target_must_be_a_fraction(self, target):
        with pytest.raises(ValueError):
            SLObjective(name="bad", target=target)


class TestBurnRates:
    def test_burn_rate_is_bad_fraction_over_budget(self):
        """burn = bad_fraction / (1 - target): 1.0 means the budget is
        being spent exactly as fast as it accrues."""
        clock = FakeClock()
        tracker = SLOTracker(
            objectives=(SLObjective(name="availability", target=0.99),),
            windows=(300.0,),
            clock=clock,
        )
        for index in range(100):
            tracker.observe("query", 0.01, error=(index == 0))
        rates = tracker.burn_rates()
        assert rates["availability"]["300s"] == pytest.approx(1.0)

    def test_old_samples_age_out_of_the_window(self):
        clock = FakeClock()
        tracker = SLOTracker(
            objectives=(SLObjective(name="availability", target=0.9),),
            windows=(300.0,),
            clock=clock,
        )
        tracker.observe("query", 0.01, error=True)
        assert tracker.burn_rates()["availability"]["300s"] > 0
        clock.advance(301.0)
        tracker.observe("query", 0.01, error=False)
        assert tracker.burn_rates()["availability"]["300s"] == 0.0

    def test_windows_are_independent(self):
        clock = FakeClock()
        tracker = SLOTracker(
            objectives=(SLObjective(name="availability", target=0.9),),
            windows=(300.0, 3600.0),
            clock=clock,
        )
        tracker.observe("query", 0.01, error=True)
        clock.advance(600.0)
        tracker.observe("query", 0.01, error=False)
        rates = tracker.burn_rates()["availability"]
        assert rates["300s"] == 0.0
        assert rates["3600s"] == pytest.approx(5.0)  # 0.5 bad / 0.1 budget

    def test_empty_window_burns_nothing(self):
        tracker = SLOTracker()
        for rates in tracker.burn_rates().values():
            assert all(rate == 0.0 for rate in rates.values())


class TestSnapshotShape:
    def test_histograms_keyed_by_route_tenant_quality(self):
        tracker = SLOTracker()
        tracker.observe("query", 0.01, tenant="acme", exact=True)
        tracker.observe("query", 0.02, tenant="acme", exact=False)
        tracker.observe("feedback", 0.03, tenant="globex", error=True)
        keys = {
            (entry["route"], entry["tenant"], entry["quality"])
            for entry in tracker.snapshot()["histograms"]
        }
        assert keys == {
            ("query", "acme", "exact"),
            ("query", "acme", "degraded"),
            ("feedback", "globex", "error"),
        }

    def test_objective_windows_report_totals(self):
        tracker = SLOTracker()
        tracker.observe("query", 0.01)
        snapshot = tracker.snapshot()
        names = {entry["name"] for entry in snapshot["objectives"]}
        assert names == {"availability", "latency"}
        for entry in snapshot["objectives"]:
            for stats in entry["windows"].values():
                assert stats["total"] == 1


class TestPerSecondWindows:
    def test_one_second_of_traffic_is_one_slot(self):
        clock = FakeClock()
        tracker = SLOTracker(clock=clock)
        for index in range(100_000):
            tracker.observe("query", 0.001, error=(index % 1000 == 0))
        for windows in tracker._windows.values():
            for window in windows:
                assert len(window.slots) == 1
        for objective in tracker.snapshot()["objectives"]:
            for stats in objective["windows"].values():
                assert stats["total"] == 100_000
        availability = tracker.snapshot()["objectives"][0]["windows"]["300s"]
        assert availability["bad"] == 100

    def test_a_window_holds_at_most_its_horizon_in_slots(self):
        clock = FakeClock()
        tracker = SLOTracker(
            objectives=(SLObjective(name="availability", target=0.9),),
            windows=(30.0, 300.0),
            clock=clock,
        )
        for _ in range(1000):
            tracker.observe("query", 0.001)
            clock.advance(1.0)
        short, long = tracker._windows["availability"]
        assert len(short.slots) <= 30
        assert len(long.slots) <= 300
        rows = tracker.snapshot()["objectives"][0]["windows"]
        assert rows["30s"]["total"] == 29  # the current second saw nothing
        assert rows["300s"]["total"] == 299

    def test_sub_second_arrivals_share_their_second(self):
        clock = FakeClock(start=1000.25)
        tracker = SLOTracker(
            objectives=(SLObjective(name="availability", target=0.9),),
            windows=(300.0,),
            clock=clock,
        )
        tracker.observe("query", 0.001, error=True)
        clock.advance(0.5)
        tracker.observe("query", 0.001)
        clock.advance(0.5)  # 1001.25: a new second
        tracker.observe("query", 0.001)
        (window,) = tracker._windows["availability"]
        assert [slot[0] for slot in window.slots] == [1000, 1001]
        stats = tracker.snapshot()["objectives"][0]["windows"]["300s"]
        assert (stats["total"], stats["bad"]) == (3, 1)


class TestPrometheusFamilies:
    def make_snapshot(self):
        tracker = SLOTracker()
        tracker.observe("query", 0.01, tenant="acme", exact=True)
        tracker.observe("query", 0.7, tenant="acme", exact=False)
        tracker.observe("feedback", 0.02, error=True)
        return {"slo": tracker.snapshot()}

    def test_histogram_family_grammar(self):
        families = parse_exposition(prometheus_text(self.make_snapshot()))
        family = families["repro_request_duration_seconds"]
        assert family["type"] == "histogram"
        buckets = [
            (labels, value)
            for name, labels, value in family["samples"]
            if name.endswith("_bucket")
        ]
        assert buckets, "histogram must emit _bucket samples"
        inf = [
            (labels, value)
            for labels, value in buckets
            if labels["le"] == "+Inf"
        ]
        assert inf, "every series must close with le=+Inf"
        for labels, _ in buckets:
            assert set(labels) == {"route", "tenant", "quality", "le"}

    def test_bucket_counts_are_cumulative_and_match_count(self):
        families = parse_exposition(prometheus_text(self.make_snapshot()))
        family = families["repro_request_duration_seconds"]
        series = {}
        for name, labels, value in family["samples"]:
            key = (labels.get("route"), labels.get("tenant"), labels.get("quality"))
            series.setdefault(key, {})[
                (name.rsplit("_", 1)[-1], labels.get("le"))
            ] = float(value)
        for key, samples in series.items():
            counts = [
                value
                for (kind, le), value in sorted(
                    (item for item in samples.items() if item[0][0] == "bucket"),
                    key=lambda item: float(item[0][1]),
                )
            ]
            assert counts == sorted(counts), f"non-monotone buckets for {key}"
            assert counts[-1] == samples[("count", None)]

    def test_burn_rate_gauge_labels(self):
        families = parse_exposition(prometheus_text(self.make_snapshot()))
        family = families["repro_slo_error_budget_burn_rate"]
        assert family["type"] == "gauge"
        labels_seen = {
            (labels["objective"], labels["window"])
            for _, labels, _ in family["samples"]
        }
        assert ("availability", "300s") in labels_seen
        assert ("latency", "3600s") in labels_seen

    def test_absent_slo_section_emits_no_families(self):
        families = parse_exposition(prometheus_text({"counters": {"queries": 1}}))
        assert "repro_request_duration_seconds" not in families
        assert "repro_slo_error_budget_burn_rate" not in families

    def test_live_service_exposition_carries_slo_families(self, two_blob_data):
        from repro.retrieval import FeatureDatabase
        from repro.service import RetrievalService

        vectors, labels = two_blob_data
        with RetrievalService(
            FeatureDatabase(vectors, labels), k=5, use_index=False, n_shards=1
        ) as service:
            session_id = service.create_session(0, tenant="acme")
            service.query(session_id)
            families = parse_exposition(service.prometheus_metrics())
        family = families["repro_request_duration_seconds"]
        count = [
            (labels, value)
            for name, labels, value in family["samples"]
            if name.endswith("_count")
        ]
        assert count[0][0]["tenant"] == "acme"
        assert float(count[0][1]) == 1.0
