"""HTTP front-end: routes, errors, tenancy, lifecycle, load generator.

Runs a real :class:`RetrievalServer` on an ephemeral port (the event
loop on a daemon thread via ``start_in_background``) and talks to it
with ``http.client`` over keep-alive connections — the same wire path
production clients use, stdlib only.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.service import BatchingConfig, RetrievalService
from repro.service.server import RetrievalServer, closed_loop_load


@pytest.fixture(scope="module")
def service(database):
    with RetrievalService(
        database, k=10, use_index=False, n_shards=1, cache_size=8
    ) as service:
        yield service


@pytest.fixture(scope="module")
def server(service):
    server = RetrievalServer(service, port=0, max_concurrent=8)
    host, port = server.start_in_background()
    yield server
    server.stop_background()


@pytest.fixture()
def conn(server):
    host, port = server.address
    connection = http.client.HTTPConnection(host, port, timeout=10)
    yield connection
    connection.close()


def call(conn, method, path, body=None, headers=None):
    status, parsed, _ = call_with_headers(conn, method, path, body, headers)
    return status, parsed


def call_with_headers(conn, method, path, body=None, headers=None):
    payload = json.dumps(body) if body is not None else None
    conn.request(method, path, body=payload, headers=headers or {})
    response = conn.getresponse()
    raw = response.read()
    if response.headers.get_content_type() == "application/json" and raw:
        return response.status, json.loads(raw), response.headers
    return response.status, raw, response.headers


class TestSessionLifecycle:
    def test_create_page_feedback_close(self, conn, service, database):
        status, created = call(conn, "POST", "/sessions", {"query": 5})
        assert status == 201
        session_id = created["session_id"]

        status, page = call(conn, "GET", f"/sessions/{session_id}/page?k=5")
        assert status == 200
        assert len(page["ids"]) == 5
        assert len(page["distances"]) == 5
        assert page["iteration"] == 0
        assert page["quality"]["exact"] is True

        status, refreshed = call(
            conn,
            "POST",
            f"/sessions/{session_id}/feedback",
            {"relevant_ids": page["ids"][:3], "k": 5},
        )
        assert status == 200
        assert refreshed["iteration"] == 1

        status, _ = call(conn, "DELETE", f"/sessions/{session_id}")
        assert status == 204
        status, body = call(conn, "GET", f"/sessions/{session_id}/page")
        assert status == 404

    def test_pages_round_trip_losslessly(self, conn, service, database):
        """A page read over HTTP is bit-identical to the in-process page
        (JSON doubles round-trip exactly)."""
        status, created = call(conn, "POST", "/sessions", {"query": 7})
        session_id = created["session_id"]
        _, page = call(conn, "GET", f"/sessions/{session_id}/page?k=7")
        direct = service.query(session_id, 7)
        assert page["ids"] == [int(i) for i in direct.ids]
        assert page["distances"] == [float(d) for d in direct.distances]
        call(conn, "DELETE", f"/sessions/{session_id}")

    def test_vector_query_and_explicit_session_id(self, conn, database):
        vector = [float(x) for x in database.vectors[3]]
        status, created = call(
            conn,
            "POST",
            "/sessions",
            {"query": vector, "session_id": "wire-vec"},
        )
        assert status == 201
        assert created["session_id"] == "wire-vec"
        status, page = call(conn, "GET", "/sessions/wire-vec/page?k=3")
        assert status == 200
        assert page["ids"][0] == 3  # nearest to its own stored vector
        call(conn, "DELETE", "/sessions/wire-vec")

    def test_tenant_header_labels_the_session(self, conn, service):
        status, created = call(
            conn,
            "POST",
            "/sessions",
            {"query": 1},
            headers={"X-Tenant": "acme"},
        )
        assert status == 201
        session_id = created["session_id"]
        assert service.tenant_of(session_id) == "acme"
        call(conn, "DELETE", f"/sessions/{session_id}")


class TestErrorPaths:
    def test_unknown_route_is_404(self, conn):
        status, body = call(conn, "GET", "/nope")
        assert status == 404
        assert "no route" in body["error"]

    def test_unknown_session_is_404(self, conn):
        status, _ = call(conn, "GET", "/sessions/ghost/page")
        assert status == 404

    def test_missing_query_is_400(self, conn):
        status, body = call(conn, "POST", "/sessions", {})
        assert status == 400
        assert "query" in body["error"]

    def test_boolean_query_is_400(self, conn):
        status, _ = call(conn, "POST", "/sessions", {"query": True})
        assert status == 400

    def test_malformed_json_is_400(self, conn):
        conn.request(
            "POST",
            "/sessions",
            body="{not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        response.read()

    def test_wrong_method_is_405(self, conn):
        status, created = call(conn, "POST", "/sessions", {"query": 2})
        session_id = created["session_id"]
        status, _ = call(conn, "POST", f"/sessions/{session_id}/page")
        assert status == 405
        status, _ = call(conn, "GET", f"/sessions/{session_id}/feedback")
        assert status == 405
        call(conn, "DELETE", f"/sessions/{session_id}")

    def test_oversized_body_is_413(self, conn):
        conn.request(
            "POST",
            "/sessions",
            headers={"Content-Length": str(9 * 1024 * 1024)},
        )
        response = conn.getresponse()
        assert response.status == 413
        # The body is never read, so the server cannot tell where the
        # next request starts: it closes the connection.
        assert response.getheader("Connection") == "close"
        response.read()
        # The client reconnects for the next (well-formed) request.
        status, _ = call(conn, "GET", "/healthz")
        assert status == 200


class TestIntrospection:
    def test_healthz(self, conn):
        status, body = call(conn, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert "sessions" in body

    def test_stats_returns_metrics_snapshot(self, conn):
        status, body = call(conn, "GET", "/stats")
        assert status == 200
        assert "counters" in body

    def test_metrics_prometheus_exposition(self, conn):
        status, raw = call(conn, "GET", "/metrics")
        assert status == 200
        assert b"# TYPE" in raw

    def test_keep_alive_reuses_one_connection(self, conn):
        for _ in range(3):
            status, _ = call(conn, "GET", "/healthz")
            assert status == 200


class TestRequestIdAndTracing:
    def test_every_response_carries_a_request_id(self, conn):
        status, _, headers = call_with_headers(conn, "GET", "/healthz")
        assert status == 200
        assert headers["X-Request-Id"]
        assert headers["traceparent"].startswith("00-")

    def test_client_request_id_echoed_verbatim(self, conn):
        _, _, headers = call_with_headers(
            conn, "GET", "/healthz", headers={"X-Request-Id": "my-req-7"}
        )
        assert headers["X-Request-Id"] == "my-req-7"

    def test_unsafe_request_id_is_replaced_not_echoed(self, conn):
        """A header-unsafe id must not be reflected back (no smuggling)."""
        _, _, headers = call_with_headers(
            conn, "GET", "/healthz", headers={"X-Request-Id": "two words !"}
        )
        assert headers["X-Request-Id"] != "two words !"

    def test_traceparent_trace_id_round_trips(self, conn):
        trace_id = "1f" * 16
        _, _, headers = call_with_headers(
            conn,
            "GET",
            "/healthz",
            headers={"traceparent": f"00-{trace_id}-{'2e' * 8}-01"},
        )
        assert headers["traceparent"].split("-")[1] == trace_id
        assert headers["X-Request-Id"] == trace_id

    def test_garbage_traceparent_never_errors(self, conn):
        status, _, headers = call_with_headers(
            conn, "GET", "/healthz", headers={"traceparent": "not-a-trace"}
        )
        assert status == 200
        assert headers["traceparent"].startswith("00-")

    def test_error_payload_includes_request_id(self, conn):
        status, body, headers = call_with_headers(
            conn,
            "GET",
            "/sessions/ghost/page",
            headers={"X-Request-Id": "err-req-1"},
        )
        assert status == 404
        assert body["request_id"] == "err-req-1"
        assert headers["X-Request-Id"] == "err-req-1"

    def test_recent_errors_visible_in_stats(self, conn):
        call(conn, "GET", "/nope", headers={"X-Request-Id": "stats-err-9"})
        _, stats = call(conn, "GET", "/stats")
        recent = stats["server"]["recent_errors"]
        entry = next(e for e in recent if e["request_id"] == "stats-err-9")
        assert entry["status"] == 404
        assert entry["route"] == "/nope"


class TestSLOEndpoint:
    def test_debug_slo_reports_objectives_and_histograms(self, conn):
        status, created = call(
            conn, "POST", "/sessions", {"query": 9}, headers={"X-Tenant": "slo-co"}
        )
        session_id = created["session_id"]
        status, _ = call(conn, "GET", f"/sessions/{session_id}/page?k=5")
        assert status == 200

        status, body = call(conn, "GET", "/debug/slo")
        assert status == 200
        names = {obj["name"] for obj in body["objectives"]}
        assert {"availability", "latency"} <= names
        for objective in body["objectives"]:
            for stats in objective["windows"].values():
                assert {"total", "bad", "bad_fraction", "burn_rate"} <= set(stats)
        page_rows = [
            entry
            for entry in body["histograms"]
            if entry["route"] == "query" and entry["tenant"] == "slo-co"
        ]
        assert page_rows and page_rows[0]["count"] >= 1
        call(conn, "DELETE", f"/sessions/{session_id}")

    def test_slo_histograms_reach_prometheus_exposition(self, conn):
        status, created = call(conn, "POST", "/sessions", {"query": 2})
        session_id = created["session_id"]
        call(conn, "GET", f"/sessions/{session_id}/page?k=3")
        status, raw = call(conn, "GET", "/metrics")
        assert b"repro_request_duration_seconds_bucket" in raw
        assert b"repro_slo_error_budget_burn_rate" in raw
        call(conn, "DELETE", f"/sessions/{session_id}")


class TestSLOCountsOncePerRequest:
    def test_page_and_feedback_count_once_each(self, database):
        """One page GET plus one feedback POST is two requests in every
        burn-rate window: the engine's query/feedback routes are the
        only SLO observations, so a page is not counted twice."""
        with RetrievalService(
            database, k=5, use_index=False, n_shards=1
        ) as service:
            server = RetrievalServer(service, port=0, max_concurrent=4)
            host, port = server.start_in_background()
            conn = http.client.HTTPConnection(host, port, timeout=10)
            try:
                _, created = call(conn, "POST", "/sessions", {"query": 3})
                session_id = created["session_id"]
                status, page = call(conn, "GET", f"/sessions/{session_id}/page")
                assert status == 200
                status, _ = call(
                    conn,
                    "POST",
                    f"/sessions/{session_id}/feedback",
                    {"relevant_ids": page["ids"][:2]},
                )
                assert status == 200
                status, body = call(conn, "GET", "/debug/slo")
            finally:
                conn.close()
                server.stop_background()
        assert status == 200
        for objective in body["objectives"]:
            for window, stats in objective["windows"].items():
                assert stats["total"] == 2, (objective["name"], window)
        routes = {entry["route"]: entry["count"] for entry in body["histograms"]}
        assert routes == {"query": 1, "feedback": 1}


class TestStatsContract:
    """The ``/stats`` fields the committed benchmark's ledger
    (``bench/ledger.py``: ``flatten_stats`` / ``counter_metrics``) reads."""

    @staticmethod
    def drive_one_session(service):
        server = RetrievalServer(service, port=0, max_concurrent=4)
        host, port = server.start_in_background()
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            _, created = call(conn, "POST", "/sessions", {"query": 7})
            session_id = created["session_id"]
            _, page = call(conn, "GET", f"/sessions/{session_id}/page")
            for _ in range(2):
                _, page = call(
                    conn,
                    "POST",
                    f"/sessions/{session_id}/feedback",
                    {"relevant_ids": page["ids"][:3]},
                )
            status, stats = call(conn, "GET", "/stats")
        finally:
            conn.close()
            server.stop_background()
        assert status == 200
        return stats

    def test_index_search_count_equals_index_searches(self, database, monkeypatch):
        from repro.index.multipoint import MultipointSearcher

        searches = []
        original = MultipointSearcher.search

        def counting_search(self, *args, **kwargs):
            searches.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MultipointSearcher, "search", counting_search)
        with RetrievalService(database, k=5, use_index=True, n_shards=1) as service:
            stats = self.drive_one_session(service)
        assert len(searches) == 3
        assert stats["latency"]["index_search"]["count"] == len(searches)
        counters = stats["counters"]
        # index.node_accesses_per_round / index.io_accesses_per_round.
        assert counters["index_node_accesses"] > 0
        assert counters["index_io_accesses"] > 0
        for key in ("cache_misses", "kernel_cache_misses", "candidates_refined"):
            assert key in counters, key

    def test_store_worker_and_batching_sections_carry_ledger_keys(self, tmp_path):
        import numpy as np

        from repro.store import FeatureStore, build_store

        rng = np.random.default_rng(11)
        path = build_store(rng.normal(size=(256, 8)), tmp_path / "c.qcs", n_shards=2)
        with RetrievalService(
            FeatureStore.open(path),
            k=5,
            use_index=False,
            scan_backend="processes",
            batching=True,
        ) as service:
            stats = self.drive_one_session(service)
        for section, keys in (
            ("worker_pool", ("tasks_completed", "tasks_failed")),
            ("feature_store", ("block_reads",)),
            ("batching", ("batches", "batched_queries", "shed", "fallbacks")),
        ):
            for key in keys:
                assert isinstance(stats[section][key], (int, float)), (section, key)
        assert stats["worker_pool"]["tasks_completed"] > 0
        assert stats["batching"]["batched_queries"] == 3
        counters = stats["counters"]
        for key in (
            "cache_misses",
            "fallback_scans",
            "kernel_cache_misses",
            "candidates_refined",
            "store_block_reads_workers",
        ):
            assert key in counters, key
        assert stats["latency"]["fallback_scan"]["count"] == counters["fallback_scans"]


class TestLifecycle:
    def test_double_start_is_rejected(self, server):
        with pytest.raises(RuntimeError, match="already started"):
            server.start_in_background()

    def test_invalid_max_concurrent(self, service):
        with pytest.raises(ValueError, match="max_concurrent"):
            RetrievalServer(service, max_concurrent=0)

    def test_stop_background_is_idempotent(self, database):
        with RetrievalService(
            database, k=5, use_index=False, n_shards=1
        ) as service:
            server = RetrievalServer(service, port=0)
            server.start_in_background()
            server.stop_background()
            server.stop_background()  # no-op


class TestClosedLoopLoad:
    def test_load_generator_against_batched_service(self, database):
        """End-to-end: concurrent HTTP sessions through the batching
        executor return the same pages as a serial unbatched replay."""
        kwargs = dict(k=10, use_index=False, n_shards=1, cache_size=0)
        with RetrievalService(database, **kwargs) as service:
            server = RetrievalServer(service, port=0, max_concurrent=8)
            host, port = server.start_in_background()
            serial = closed_loop_load(
                host, port, sessions=1, rounds=2, k=5, query_ids=[4]
            )
            server.stop_background()
        assert not serial["errors"]

        with RetrievalService(
            database,
            batching=BatchingConfig(max_batch=8),
            **kwargs,
        ) as service:
            server = RetrievalServer(service, port=0, max_concurrent=8)
            host, port = server.start_in_background()
            report = closed_loop_load(
                host,
                port,
                sessions=6,
                rounds=2,
                k=5,
                query_ids=[4] * 6,
                tenants=3,
            )
            stats = service.batching.stats()
            server.stop_background()
        assert not report["errors"]
        assert report["queries"] == 6 * 3
        assert report["qps"] > 0
        assert stats["batched_queries"] == 6 * 3
        # Every concurrent session of the same seed query returns the
        # serial session's exact pages, round for round.
        for (index, round_index), page in report["pages"].items():
            assert page == serial["pages"][(0, round_index)]


class TestApproximateOverHTTP:
    """The ANN tier through the wire: opt-in flag, honest provenance."""

    @pytest.fixture()
    def ann_conn(self, database):
        with RetrievalService(database, k=10, ann=True) as service:
            server = RetrievalServer(service, port=0, max_concurrent=4)
            host, port = server.start_in_background()
            connection = http.client.HTTPConnection(host, port, timeout=10)
            yield connection, service
            connection.close()
            server.stop_background()

    def test_approximate_page_carries_estimated_recall(self, ann_conn):
        conn, service = ann_conn
        _, created = call(conn, "POST", "/sessions", {"query": 5})
        session_id = created["session_id"]
        status, page = call(
            conn, "GET", f"/sessions/{session_id}/page?k=5&approximate=1"
        )
        assert status == 200
        assert page["quality"]["level"] == "approximate"
        assert page["quality"]["reasons"] == ["ann"]
        assert page["quality"]["estimated_recall"] == pytest.approx(
            service.ann_tree.calibrated_recall
        )

    def test_exact_page_has_no_recall_field(self, ann_conn):
        conn, _ = ann_conn
        _, created = call(conn, "POST", "/sessions", {"query": 5})
        session_id = created["session_id"]
        status, page = call(conn, "GET", f"/sessions/{session_id}/page?k=5")
        assert status == 200
        assert page["quality"]["exact"] is True
        assert "estimated_recall" not in page["quality"]

    def test_approximate_feedback_flag(self, ann_conn):
        conn, _ = ann_conn
        _, created = call(conn, "POST", "/sessions", {"query": 5})
        session_id = created["session_id"]
        _, page = call(
            conn, "GET", f"/sessions/{session_id}/page?k=5&approximate=1"
        )
        status, refined = call(
            conn,
            "POST",
            f"/sessions/{session_id}/feedback",
            {"relevant_ids": page["ids"][:3], "k": 5, "approximate": True},
        )
        assert status == 200
        assert refined["quality"]["level"] == "approximate"
        # Divergent trajectory: the exact path now reports it honestly.
        _, later = call(conn, "GET", f"/sessions/{session_id}/page?k=5")
        assert later["quality"]["level"] == "approximate"

    @pytest.mark.parametrize("flag", ["false", 0])
    def test_feedback_flag_must_be_a_json_boolean(self, ann_conn, flag):
        """A truthy string must not silently opt into the ANN tier."""
        conn, service = ann_conn
        _, created = call(conn, "POST", "/sessions", {"query": 5})
        session_id = created["session_id"]
        status, body = call(
            conn,
            "POST",
            f"/sessions/{session_id}/feedback",
            {"relevant_ids": [5, 6], "k": 5, "approximate": flag},
        )
        assert status == 400
        assert "JSON boolean" in body["error"]
        assert service.metrics_snapshot()["counters"].get("ann_scans", 0) == 0
