"""Prometheus exposition: values, families, and text-format grammar."""

from __future__ import annotations

import re

import pytest

from repro.obs import DEFAULT_BUCKETS, Tracer, prometheus_text
from repro.service import ServiceMetrics

_METRIC_NAME = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>\S+)(?: (?P<timestamp>\S+))?$"
)
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"$')


def parse_exposition(text: str):
    """Validate ``text`` against the text-format (v0.0.4) grammar.

    Returns ``{family: {"type": ..., "samples": [(name, labels, value)]}}``
    and raises AssertionError on any malformed line, unknown family, or
    sample appearing before its TYPE header.
    """
    assert text.endswith("\n"), "exposition must end with a newline"
    families = {}
    current = None
    for line in text.splitlines():
        assert line == line.strip(), f"stray whitespace: {line!r}"
        if line.startswith("# HELP "):
            _, _, rest = line.partition("# HELP ")
            name, _, help_text = rest.partition(" ")
            assert _METRIC_NAME.match(name), name
            assert help_text, f"HELP without text: {line!r}"
            families[name] = {"type": None, "help": help_text, "samples": []}
            current = name
            continue
        if line.startswith("# TYPE "):
            _, _, rest = line.partition("# TYPE ")
            name, _, kind = rest.partition(" ")
            assert name == current, "TYPE must follow its HELP line"
            assert kind in ("counter", "gauge", "summary", "histogram", "untyped")
            families[name]["type"] = kind
            continue
        assert not line.startswith("#"), f"unknown comment: {line!r}"
        match = _SAMPLE.match(line)
        assert match, f"malformed sample line: {line!r}"
        name = match.group("name")
        base = name
        for suffix in ("_sum", "_count", "_bucket"):
            if base.endswith(suffix) and base[: -len(suffix)] in families:
                base = base[: -len(suffix)]
        assert base in families, f"sample {name} outside any declared family"
        assert families[base]["type"] is not None
        labels = {}
        raw = match.group("labels")
        if raw:
            for part in raw.split(","):
                label = _LABEL.match(part)
                assert label, f"malformed label: {part!r} in {line!r}"
                assert _LABEL_NAME.match(label.group("key"))
                labels[label.group("key")] = label.group("value")
        value = match.group("value")
        if value not in ("+Inf", "-Inf", "NaN"):
            float(value)  # must parse
        families[base]["samples"].append((name, labels, value))
    return families


#: The ``le`` label sequence every latency histogram series carries.
LE_LADDER = [f"{bound:g}" for bound in DEFAULT_BUCKETS] + ["+Inf"]


def make_snapshot():
    metrics = ServiceMetrics()
    metrics.increment("queries", 7)
    metrics.increment("cache_hits", 3)
    metrics.increment("cache_misses", 1)
    for value in (0.010, 0.020, 0.030, 0.040):
        metrics.observe("query", value)
    snapshot = metrics.snapshot()
    snapshot["store"] = {"live_sessions": 2, "capacity": 64}
    snapshot["cache"] = {"pages": 5, "capacity": 128, "hit_rate": 0.75}
    return snapshot


class TestGrammar:
    def test_full_exposition_parses(self):
        tracer = Tracer()
        with tracer.span("feedback"):
            with tracer.span("classify") as span:
                span.event("cluster_seeded", radius=1.0)
        text = prometheus_text(make_snapshot(), tracer=tracer)
        families = parse_exposition(text)
        assert "repro_events_total" in families
        assert "repro_stage_duration_seconds" in families
        assert "repro_spans_total" in families
        assert "repro_trace_events_total" in families

    def test_every_family_has_samples_and_one_header(self):
        text = prometheus_text(make_snapshot())
        families = parse_exposition(text)
        for name, family in families.items():
            assert family["samples"], f"family {name} has no samples"
        assert text.count("# TYPE repro_events_total ") == 1


class TestValues:
    def test_counter_values(self):
        families = parse_exposition(prometheus_text(make_snapshot()))
        samples = {
            labels["counter"]: value
            for _, labels, value in families["repro_events_total"]["samples"]
        }
        assert samples["queries"] == "7"
        assert samples["cache_hits"] == "3"

    def test_stage_histogram_buckets_sum_count(self):
        families = parse_exposition(prometheus_text(make_snapshot()))
        family = families["repro_stage_duration_seconds"]
        assert family["type"] == "histogram"
        by_name = {}
        for name, labels, value in family["samples"]:
            by_name.setdefault(name, []).append((labels, value))
        buckets = by_name["repro_stage_duration_seconds_bucket"]
        assert [labels["le"] for labels, _ in buckets] == LE_LADDER
        assert all(labels["stage"] == "query" for labels, _ in buckets)
        cumulative = [float(value) for _, value in buckets]
        assert cumulative == sorted(cumulative)
        # 10/20/30/40 ms: two at le=0.025, all four at le=0.05.
        by_le = {labels["le"]: float(value) for labels, value in buckets}
        assert (by_le["0.01"], by_le["0.025"], by_le["0.05"]) == (1.0, 2.0, 4.0)
        assert by_le["+Inf"] == 4.0
        (labels, count) = by_name["repro_stage_duration_seconds_count"][0]
        assert labels == {"stage": "query"}
        assert float(count) == 4.0
        (_, total) = by_name["repro_stage_duration_seconds_sum"][0]
        assert float(total) == pytest.approx(0.1)

    def test_gauges_present(self):
        families = parse_exposition(prometheus_text(make_snapshot()))
        assert families["repro_cache_hit_rate"]["samples"][0][2] == "0.75"
        assert "repro_uptime_seconds" in families
        assert "repro_store_info" in families

    def test_tracer_aggregates_exported(self):
        tracer = Tracer()
        for _ in range(2):
            with tracer.span("scan") as span:
                span.event("index_knn", refined=10)
        families = parse_exposition(prometheus_text({}, tracer=tracer))
        spans = {
            labels["name"]: value
            for _, labels, value in families["repro_spans_total"]["samples"]
        }
        assert spans["scan"] == "2"
        events = {
            labels["event"]: value
            for _, labels, value in families["repro_trace_events_total"]["samples"]
        }
        assert events["index_knn"] == "2"

    def test_label_escaping(self):
        snapshot = {"counters": {'weird"name\\with\nstuff': 1}}
        text = prometheus_text(snapshot)
        parse_exposition(text)  # must still satisfy the grammar

    def test_namespace_override(self):
        families = parse_exposition(
            prometheus_text(make_snapshot(), namespace="imgsearch")
        )
        assert "imgsearch_events_total" in families

    def test_empty_snapshot_yields_valid_empty_exposition(self):
        assert prometheus_text({}) == "\n"


class TestStoreAndPoolFamilies:
    """The feature-store / worker-pool families added by the store PR."""

    def make_store_snapshot(self):
        snapshot = make_snapshot()
        snapshot["counters"]["store_block_reads_workers"] = 12
        snapshot["feature_store"] = {
            "epoch": 3,
            "n": 120,
            "dimension": 3,
            "n_shards": 4,
            "blocks": 5,
            "block_reads": 17,
            "quarantined_blocks": 1,
            "fingerprint": "deadbeef:3",
        }
        snapshot["worker_pool"] = {
            "workers": 4,
            "busy": 2,
            "peak_busy": 4,
            "tasks_completed": 31,
            "tasks_failed": 1,
        }
        return snapshot

    def test_block_reads_counter(self):
        families = parse_exposition(prometheus_text(self.make_store_snapshot()))
        family = families["repro_store_block_reads_total"]
        assert family["type"] == "counter"
        assert family["samples"][0][2] == "17"

    def test_worker_pool_busy_gauge(self):
        families = parse_exposition(prometheus_text(self.make_store_snapshot()))
        family = families["repro_worker_pool_busy"]
        assert family["type"] == "gauge"
        assert family["samples"][0][2] == "2"

    def test_info_sections_exported_and_grammar_clean(self):
        text = prometheus_text(self.make_store_snapshot())
        families = parse_exposition(text)  # grammar holds with both sections
        store_info = {
            labels["field"]: value
            for _, labels, value in families["repro_feature_store_info"]["samples"]
        }
        assert store_info["quarantined_blocks"] == "1"
        assert "fingerprint" not in store_info  # strings cannot be samples
        pool_info = {
            labels["field"]: value
            for _, labels, value in families["repro_worker_pool_info"]["samples"]
        }
        assert pool_info["tasks_completed"] == "31"
        assert pool_info["peak_busy"] == "4"

    def test_absent_sections_emit_no_store_families(self):
        families = parse_exposition(prometheus_text(make_snapshot()))
        assert "repro_store_block_reads_total" not in families
        assert "repro_worker_pool_busy" not in families
        assert "repro_worker_pool_info" not in families

    def test_live_service_snapshot_round_trips(self, tmp_path):
        import numpy as np

        from repro.service import RetrievalService
        from repro.store import FeatureStore, build_store

        rng = np.random.default_rng(3)
        path = build_store(rng.normal(size=(64, 4)), tmp_path / "m.qcs", n_shards=2)
        store = FeatureStore.open(path)
        with RetrievalService(store, k=5, use_index=False) as service:
            session = service.create_session(np.zeros(4))
            service.query(session)
            text = prometheus_text(service.metrics_snapshot())
        families = parse_exposition(text)
        assert float(families["repro_store_block_reads_total"]["samples"][0][2]) > 0


class TestBatchingFamilies:
    def batching_snapshot(self):
        snapshot = make_snapshot()
        snapshot["batching"] = {
            "submitted": 24,
            "batches": 9,
            "batched_queries": 24,
            "queue_depth": 2,
            "peak_queue_depth": 11,
            "shed": 1,
            "fallbacks": 0,
            "mean_batch_size": 2.6667,
            "p50_batch_size": 2.0,
            "max_batch_size": 6.0,
            "tenants_served": {"acme": 16, "globex": 8},
        }
        return snapshot

    def test_batch_families_exported(self):
        families = parse_exposition(prometheus_text(self.batching_snapshot()))
        assert families["repro_batch_queue_depth"]["type"] == "gauge"
        assert families["repro_batches_total"]["type"] == "counter"
        assert families["repro_batched_queries_total"]["type"] == "counter"
        assert families["repro_batch_size"]["type"] == "summary"
        depth = families["repro_batch_queue_depth"]["samples"]
        assert depth == [("repro_batch_queue_depth", {}, "2")]
        assert families["repro_batches_total"]["samples"][0][2] == "9"

    def test_batch_size_summary_shape(self):
        families = parse_exposition(prometheus_text(self.batching_snapshot()))
        samples = {
            (name, labels.get("quantile")): value
            for name, labels, value in families["repro_batch_size"]["samples"]
        }
        assert samples[("repro_batch_size", "0.5")] == "2"
        assert samples[("repro_batch_size", "1")] == "6"
        assert samples[("repro_batch_size_sum", None)] == "24"
        assert samples[("repro_batch_size_count", None)] == "9"

    def test_tenant_counter_labels(self):
        families = parse_exposition(prometheus_text(self.batching_snapshot()))
        tenants = {
            labels["tenant"]: value
            for _, labels, value in families["repro_batch_tenant_queries_total"][
                "samples"
            ]
        }
        assert tenants == {"acme": "16", "globex": "8"}

    def test_numeric_fields_land_in_the_info_section(self):
        families = parse_exposition(prometheus_text(self.batching_snapshot()))
        fields = {
            labels["field"]
            for _, labels, _ in families["repro_batching_info"]["samples"]
        }
        assert "shed" in fields
        assert "peak_queue_depth" in fields

    def test_absent_batching_emits_no_batch_families(self):
        families = parse_exposition(prometheus_text(make_snapshot()))
        assert "repro_batch_queue_depth" not in families
        assert "repro_batches_total" not in families

    def test_live_batched_service_exposition(self, two_blob_data):
        """A real batched service's /metrics output carries the batch
        families and stays grammar-clean."""
        from repro.retrieval import FeatureDatabase
        from repro.service import BatchingConfig, RetrievalService

        vectors, labels = two_blob_data
        database = FeatureDatabase(vectors, labels)
        with RetrievalService(
            database,
            k=5,
            use_index=False,
            n_shards=1,
            batching=BatchingConfig(max_batch=4),
        ) as service:
            session_id = service.create_session(0, tenant="acme")
            service.query(session_id)
            families = parse_exposition(service.prometheus_metrics())
        assert families["repro_batched_queries_total"]["samples"][0][2] == "1"
        tenant_samples = families["repro_batch_tenant_queries_total"]["samples"]
        assert tenant_samples[0][1] == {"tenant": "acme"}


class TestLatencyFamilies:
    def test_every_latency_family_is_a_histogram_on_one_ladder(self, two_blob_data):
        """Stage latency, batch queue wait and request duration all come
        from the same histograms: TYPE histogram, identical le bounds."""
        from repro.retrieval import FeatureDatabase
        from repro.service import BatchingConfig, RetrievalService

        vectors, labels = two_blob_data
        with RetrievalService(
            FeatureDatabase(vectors, labels),
            k=5,
            use_index=False,
            n_shards=1,
            batching=BatchingConfig(max_batch=4),
        ) as service:
            session_id = service.create_session(0, tenant="acme")
            service.query(session_id)
            service.feedback(session_id, [0, 1])
            families = parse_exposition(service.prometheus_metrics())
        latency_families = [
            name
            for name in families
            if name.endswith("_seconds") and name != "repro_uptime_seconds"
        ]
        assert set(latency_families) == {
            "repro_stage_duration_seconds",
            "repro_batch_queue_wait_seconds",
            "repro_request_duration_seconds",
        }
        for name in latency_families:
            family = families[name]
            assert family["type"] == "histogram", name
            series = {}
            for sample, labels, value in family["samples"]:
                if sample.endswith("_bucket"):
                    key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
                    series.setdefault(key, []).append(labels["le"])
            assert series, name
            for ladder in series.values():
                assert ladder == LE_LADDER, name
