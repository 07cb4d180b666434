"""Cross-session batching: qps under a 64-session closed-loop load.

The acceptance benchmark of the ``repro.service.batching`` subsystem:
the same 64-session closed-loop feedback workload (create → page →
rounds × judge/feedback) is driven against one
:class:`RetrievalService` twice — once through the unbatched
thread-pool path and once through the batching executor — and every
page either run serves must be **byte-identical** to a sequential
serial replay (that part is asserted unconditionally — it is what
makes batching safe to turn on).

Writes ``BENCH_batching.json`` (overridable via ``QCLUSTER_BENCH_OUT``)
with the throughput/latency numbers so CI can archive them.

Scale: the default configuration matches the acceptance bar (≥1.5x
queries/sec at equal-or-better p50); ``QCLUSTER_BENCH_SMALL=1`` (the CI
smoke job sets it) shrinks the workload so the whole run takes seconds.
The speedup bar is skipped (never silently passed) in small mode,
where per-query work is too cheap for coalescing to pay off.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.retrieval import FeatureDatabase, SimulatedUser
from repro.service import BatchingConfig, RetrievalService
from repro.service.metrics import percentile

SMALL = os.environ.get("QCLUSTER_BENCH_SMALL", "") == "1"

N = 2_048 if SMALL else 98_304
P = 16 if SMALL else 64
N_CATEGORIES = 16
SESSIONS = 16 if SMALL else 64
ROUNDS = 2 if SMALL else 3
K = 10
SEED = 23

OUT_PATH = Path(os.environ.get("QCLUSTER_BENCH_OUT", "BENCH_batching.json"))

#: One service configuration for every run — only ``batching`` differs.
_SERVICE_KWARGS = dict(k=K, use_index=False, n_shards=1, cache_size=32)


def make_database() -> FeatureDatabase:
    # A decaying coordinate spectrum, like PCA-rotated image features:
    # most variance in the leading coordinates, so the progressive
    # prefix filter prunes the way it does on real collections.
    rng = np.random.default_rng(SEED)
    scales = (1.0 / (1.0 + np.arange(P))) ** 0.8
    vectors = 2.0 * rng.standard_normal((N, P)) * scales
    labels = np.arange(N) % N_CATEGORIES
    return FeatureDatabase(vectors, labels)


def session_loop(service, database, index, query_id, pages, latencies):
    """One session's closed loop; fills ``pages[(index, round)]``."""
    user = SimulatedUser(database, database.category_of(query_id))
    session_id = service.create_session(query_id, session_id=f"bench-{index}")
    start = time.perf_counter()
    page = service.query(session_id)
    latencies.append(time.perf_counter() - start)
    pages[(index, 0)] = (page.ids.tobytes(), page.distances.tobytes())
    for round_index in range(1, ROUNDS + 1):
        judgment = user.judge(page.ids)
        start = time.perf_counter()
        page = service.feedback(
            session_id, judgment.relevant_indices, judgment.scores
        )
        latencies.append(time.perf_counter() - start)
        pages[(index, round_index)] = (
            page.ids.tobytes(),
            page.distances.tobytes(),
        )
    service.close(session_id)


def drive_concurrent(database, query_ids, *, batching):
    """The closed-loop load: one driver thread per session."""
    service = RetrievalService(database, batching=batching, **_SERVICE_KWARGS)
    pages: dict = {}
    per_thread = [[] for _ in query_ids]
    errors = []
    gate = threading.Barrier(len(query_ids) + 1)

    def run(index: int, query_id: int) -> None:
        try:
            gate.wait()
            session_loop(
                service, database, index, query_id, pages, per_thread[index]
            )
        except BaseException as error:  # surfaced after join
            errors.append(error)

    threads = [
        threading.Thread(target=run, args=(index, int(query_id)))
        for index, query_id in enumerate(query_ids)
    ]
    for thread in threads:
        thread.start()
    gate.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    stats = service.batching.stats() if service.batching is not None else None
    service.shutdown()
    assert not errors, errors[0]
    latencies = [value for bucket in per_thread for value in bucket]
    queries = len(latencies)
    return {
        "pages": pages,
        "wall_s": wall,
        "qps": queries / wall,
        "queries": queries,
        "p50_s": percentile(latencies, 50.0),
        "p95_s": percentile(latencies, 95.0),
        "batching": stats,
    }


@pytest.fixture(scope="module")
def payload():
    """Time both runs once for the module; returns the JSON dict."""
    database = make_database()
    rng = np.random.default_rng(SEED)
    query_ids = rng.choice(N, size=SESSIONS, replace=False)

    # Serial reference: the same sessions replayed sequentially on an
    # unbatched service — the byte-identity ground truth.  SimulatedUser
    # judgments are a pure function of the page, so each session's
    # feedback trajectory is independent of scheduling.
    serial_service = RetrievalService(database, **_SERVICE_KWARGS)
    serial_pages: dict = {}
    for index, query_id in enumerate(query_ids):
        session_loop(
            serial_service, database, index, int(query_id), serial_pages, []
        )
    serial_service.shutdown()

    baseline = drive_concurrent(database, query_ids, batching=False)
    batched = drive_concurrent(
        database,
        query_ids,
        batching=BatchingConfig(max_batch=32),
    )

    data = {
        "n": N,
        "p": P,
        "sessions": SESSIONS,
        "rounds": ROUNDS,
        "k": K,
        "small_mode": SMALL,
        "cpu_count": os.cpu_count(),
        "baseline": {
            key: baseline[key]
            for key in ("qps", "wall_s", "queries", "p50_s", "p95_s")
        },
        "batched": {
            key: batched[key]
            for key in ("qps", "wall_s", "queries", "p50_s", "p95_s")
        },
        "batch_stats": {
            key: batched["batching"][key]
            for key in (
                "batches",
                "batched_queries",
                "mean_batch_size",
                "p50_batch_size",
                "max_batch_size",
                "peak_queue_depth",
                "shed",
                "fallbacks",
            )
        },
        "speedup_qps": batched["qps"] / baseline["qps"],
        "p50_ratio": batched["p50_s"] / baseline["p50_s"],
    }
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return {
        "data": data,
        "serial_pages": serial_pages,
        "baseline_pages": baseline["pages"],
        "batched_pages": batched["pages"],
    }


class TestBatchingThroughput:
    def test_writes_benchmark_json(self, payload):
        assert OUT_PATH.exists()
        on_disk = json.loads(OUT_PATH.read_text())
        assert on_disk["sessions"] == SESSIONS
        assert on_disk["baseline"]["qps"] > 0
        assert on_disk["batched"]["qps"] > 0
        assert on_disk["batch_stats"]["batches"] > 0

    def test_batching_actually_coalesced(self, payload):
        """The batched run must have formed real multi-query batches —
        a ladder of singleton batches would benchmark nothing."""
        stats = payload["data"]["batch_stats"]
        assert stats["batched_queries"] == SESSIONS * (ROUNDS + 1)
        assert stats["max_batch_size"] >= 2

    def test_batched_pages_byte_identical_to_serial(self, payload):
        """The load-bearing property, asserted in every mode — batching
        may change wall-clock, never a ranking byte."""
        assert payload["batched_pages"] == payload["serial_pages"]

    def test_unbatched_concurrency_is_byte_identical_too(self, payload):
        """Sanity: the baseline itself is deterministic under threading,
        so the comparison above isolates the batching path."""
        assert payload["baseline_pages"] == payload["serial_pages"]

    def test_throughput_bar(self, payload):
        """≥1.5x qps at equal-or-better p50 vs the unbatched path."""
        data = payload["data"]
        print(
            f"\nbatching speedup at N={N}, p={P}, {SESSIONS} sessions: "
            f"{data['speedup_qps']:.2f}x qps, p50 ratio "
            f"{data['p50_ratio']:.2f}"
        )
        if SMALL:
            pytest.skip("small smoke run: per-query work too cheap to batch")
        assert data["speedup_qps"] >= 1.5
        assert data["batched"]["p50_s"] <= data["baseline"]["p50_s"]
