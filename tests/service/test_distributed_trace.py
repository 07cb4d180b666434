"""Cross-process trace stitching: worker scan spans join the request tree.

The acceptance path of the distributed-tracing PR: a query served by the
process-pool backend (and, end-to-end, over HTTP with batching enabled)
must produce ONE trace — the coordinator's request spans with the
worker-side shard scans grafted in, all sharing the propagated trace id.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.obs import Tracer, trace_to_jsonl_lines
from repro.service import BatchingConfig, RetrievalService
from repro.service.server import RetrievalServer
from repro.store import FeatureStore, build_store


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, database):
    path = tmp_path_factory.mktemp("trace-store") / "trace.qcs"
    return build_store(database, path, n_shards=4)


def walk(span):
    yield span
    for child in span.get("children", ()):
        yield from walk(child)


def worker_spans(trace):
    return [
        span
        for span in walk(trace)
        if span.get("attributes", {}).get("path") == "worker"
    ]


class TestProcessBackendStitching:
    def test_query_trace_contains_worker_scan_spans(self, store_path):
        tracer = Tracer()
        store = FeatureStore.open(store_path)
        with RetrievalService(
            store,
            k=10,
            use_index=False,
            scan_backend="processes",
            max_workers=2,
            tracer=tracer,
            cache_size=0,
        ) as service:
            session = service.create_session(0)
            page = service.query(session)
        assert page.quality.is_exact
        query_trace = next(
            trace for trace in tracer.traces() if trace["name"] == "query"
        )
        grafted = worker_spans(query_trace)
        assert len(grafted) == store.n_shards  # one scan per shard
        shards = {span["attributes"]["shard"] for span in grafted}
        assert shards == set(range(store.n_shards))
        for span in grafted:
            assert span["name"] == "scan"
            assert span["trace_id"] == query_trace["trace_id"]
            assert span["attributes"]["pid"] > 0

    def test_grafted_spans_are_connected_to_the_request_root(self, store_path):
        """Flattened JSONL reconstructs one tree: every worker span's
        parent chain reaches the query root."""
        tracer = Tracer()
        with RetrievalService(
            FeatureStore.open(store_path),
            k=10,
            use_index=False,
            scan_backend="processes",
            max_workers=2,
            tracer=tracer,
            cache_size=0,
        ) as service:
            session = service.create_session(1)
            service.query(session)
        query_trace = next(
            trace for trace in tracer.traces() if trace["name"] == "query"
        )
        lines = [json.loads(line) for line in trace_to_jsonl_lines(query_trace)]
        spans = {
            record["span_id"]: record
            for record in lines
            if record.get("kind") != "event"
        }
        roots = [s for s in spans.values() if s["span_id"] == query_trace["span_id"]]
        assert len(roots) == 1
        for record in spans.values():
            node, hops = record, 0
            while node["span_id"] != query_trace["span_id"]:
                assert hops < 20, "unreachable span: broken parent chain"
                node = spans[node["parent_id"]]
                hops += 1

    def test_worker_spans_carry_scan_events(self, store_path):
        """Prune/kernel events recorded inside the worker process survive
        the round-trip."""
        tracer = Tracer()
        with RetrievalService(
            FeatureStore.open(store_path),
            k=10,
            use_index=False,
            scan_backend="processes",
            max_workers=1,
            tracer=tracer,
            cache_size=0,
        ) as service:
            session = service.create_session(2)
            service.query(session)
        query_trace = next(
            trace for trace in tracer.traces() if trace["name"] == "query"
        )
        events = [
            event["name"]
            for span in worker_spans(query_trace)
            for event in walk_events(span)
        ]
        assert events, "worker spans recorded no events"

    def test_disabled_tracer_leaves_results_identical(self, store_path):
        """Tracing must not perturb ranking: same page bytes either way."""
        def run(tracer):
            with RetrievalService(
                FeatureStore.open(store_path),
                k=10,
                use_index=False,
                scan_backend="processes",
                max_workers=2,
                tracer=tracer,
                cache_size=0,
            ) as service:
                session = service.create_session(3)
                return service.query(session)

        traced = run(Tracer())
        untraced = run(None)
        assert traced.ids.tobytes() == untraced.ids.tobytes()
        assert traced.distances.tobytes() == untraced.distances.tobytes()


def walk_events(span):
    yield from span.get("events", ())
    for child in span.get("children", ()):
        yield from walk_events(child)


class TestHttpEndToEnd:
    def test_http_batched_process_query_is_one_stitched_trace(
        self, store_path, database
    ):
        """The full acceptance chain: http_request → query → scan → batch
        → worker scans, one trace id end to end, client traceparent
        adopted and echoed."""
        tracer = Tracer()
        client_trace = "ab" * 16
        client_span = "cd" * 8
        with RetrievalService(
            FeatureStore.open(store_path),
            k=10,
            use_index=False,
            scan_backend="processes",
            max_workers=2,
            tracer=tracer,
            cache_size=0,
            batching=BatchingConfig(max_batch=4),
        ) as service:
            server = RetrievalServer(service, port=0, max_concurrent=4)
            host, port = server.start_in_background()
            try:
                conn = http.client.HTTPConnection(host, port, timeout=10)
                conn.request(
                    "POST", "/sessions", body=json.dumps({"query": 5}),
                    headers={"Content-Type": "application/json"},
                )
                created = json.loads(conn.getresponse().read())
                conn.request(
                    "GET",
                    f"/sessions/{created['session_id']}/page?k=5",
                    headers={
                        "traceparent": f"00-{client_trace}-{client_span}-01"
                    },
                )
                response = conn.getresponse()
                response.read()
                echoed = response.getheader("traceparent")
                assert response.getheader("X-Request-Id")
                conn.close()
            finally:
                server.stop_background()

        assert echoed is not None and echoed.startswith(f"00-{client_trace}-")
        http_trace = next(
            trace
            for trace in tracer.traces()
            if trace["name"] == "http_request"
            and trace["attributes"].get("route", "").endswith("/page")
        )
        # The root adopted the client's identity.
        assert http_trace["trace_id"] == client_trace
        assert http_trace["parent_id"] == client_span
        names = {span["name"] for span in walk(http_trace)}
        assert {"http_request", "query", "scan", "batch"} <= names
        grafted = worker_spans(http_trace)
        assert grafted, "no worker spans stitched into the HTTP trace"
        assert {span["trace_id"] for span in walk(http_trace)} == {client_trace}
