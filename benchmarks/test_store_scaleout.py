"""Store scan scale-out: qps vs worker-process count over one store file.

The acceptance benchmark of the ``repro.store`` / ``repro.parallel``
subsystem: the same full-inverse ranking workload is scanned from one
memory-mapped feature store by worker pools of 1, 2, 4 and 8 processes,
and every configuration must return **byte-identical** pages (that part
is asserted unconditionally — it is what makes the backend selectable).

Writes ``BENCH_store.json`` (overridable via ``QCLUSTER_BENCH_OUT``)
with the qps ladder and derived speedups so CI can archive the numbers.

Scale: the default configuration matches the acceptance bar (N ≥ 40k
rows, p = 128, full-inverse scheme); ``QCLUSTER_BENCH_SMALL=1`` (the CI
smoke job sets it) shrinks the workload so the whole ladder runs in
seconds.  The ≥2.5x-at-4-workers assertion additionally requires 4
physical cores — a 1- or 2-CPU runner cannot demonstrate process
scale-out, only fail to — so it is skipped (never silently passed)
when ``os.cpu_count()`` is too small or the run is small-mode.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.covariance import get_scheme
from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.parallel import ShardWorkerPool
from repro.parallel.workers import encode_query, scan_shard_topk
from repro.core.progressive import exact_top_k
from repro.store import FeatureStore, build_store

SMALL = os.environ.get("QCLUSTER_BENCH_SMALL", "") == "1"

N = 2_048 if SMALL else 40_960
P = 16 if SMALL else 128
G = 3
K = 20
N_SHARDS = 8
WORKER_COUNTS = (1, 2, 4, 8)
REPEATS = 2 if SMALL else 5
SEED = 11

OUT_PATH = Path(os.environ.get("QCLUSTER_BENCH_OUT", "BENCH_store.json"))


def build_query(rng: np.random.Generator) -> DisjunctiveQuery:
    """A g-point full-inverse query (the expensive covariance scheme)."""
    scheme = get_scheme("inverse")
    points = []
    for _ in range(G):
        cloud = 2.0 * rng.standard_normal(P) + rng.standard_normal((4 * P, P))
        info = scheme.invert(np.cov(cloud, rowvar=False))
        points.append(
            QueryPoint(
                center=cloud.mean(axis=0),
                inverse=info.inverse,
                weight=1.0,
                diagonal=info.diagonal,
            )
        )
    return DisjunctiveQuery(points)


def merge_parts(parts):
    """The coordinator's deterministic (distance, id) merge."""
    ids = np.concatenate([part[0] for part in parts])
    distances = np.concatenate([part[1] for part in parts])
    top = exact_top_k(distances, K, tie_break=ids)
    return ids[top], distances[top]


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    """Time the scan ladder once for the module; returns the JSON dict."""
    rng = np.random.default_rng(SEED)
    vectors = 2.0 * rng.standard_normal((N, P))
    store_path = build_store(
        vectors, tmp_path_factory.mktemp("bench") / "scaleout.qcs", n_shards=N_SHARDS
    )
    store = FeatureStore.open(store_path)
    query = build_query(rng)
    encoded = encode_query(query)

    # Serial reference: the shared scan kernel over the store's own
    # shards, merged exactly like the coordinator does.
    serial_parts = [
        scan_shard_topk(query, store.shard(i), store.row_offsets[i], K)
        for i in range(N_SHARDS)
    ]
    reference = merge_parts(serial_parts)

    ladder = {}
    pages = {}
    for n_workers in WORKER_COUNTS:
        with ShardWorkerPool(store_path, n_workers=n_workers) as pool:
            # Warm-up: spawn + per-process store open + kernel compile.
            futures = [
                pool.submit_batch(i, [encoded], [K]) for i in range(N_SHARDS)
            ]
            pages[n_workers] = merge_parts([f.result()[0] for f in futures])
            best = float("inf")
            for _ in range(REPEATS):
                start = time.perf_counter()
                futures = [
                    pool.submit_batch(i, [encoded], [K])
                    for i in range(N_SHARDS)
                ]
                for future in futures:
                    future.result()
                best = min(best, time.perf_counter() - start)
        ladder[n_workers] = {
            "best_scan_seconds": best,
            "qps": 1.0 / best,
        }

    data = {
        "n": N,
        "p": P,
        "g": G,
        "k": K,
        "n_shards": N_SHARDS,
        "scheme": "inverse",
        "repeats": REPEATS,
        "small_mode": SMALL,
        "cpu_count": os.cpu_count(),
        "workers": {str(w): ladder[w] for w in WORKER_COUNTS},
        "speedup_4_vs_1": ladder[1]["best_scan_seconds"]
        / ladder[4]["best_scan_seconds"],
        "speedup_8_vs_1": ladder[1]["best_scan_seconds"]
        / ladder[8]["best_scan_seconds"],
    }
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return {"data": data, "pages": pages, "reference": reference}


class TestStoreScaleout:
    def test_writes_benchmark_json(self, payload):
        assert OUT_PATH.exists()
        on_disk = json.loads(OUT_PATH.read_text())
        assert on_disk["n"] == N and on_disk["p"] == P
        assert set(on_disk["workers"]) == {str(w) for w in WORKER_COUNTS}
        for entry in on_disk["workers"].values():
            assert entry["qps"] > 0

    def test_every_worker_count_is_byte_identical_to_serial(self, payload):
        """The load-bearing property, asserted at every ladder rung —
        worker count may change wall-clock, never a ranking byte."""
        ref_ids, ref_distances = payload["reference"]
        for n_workers, (ids, distances) in payload["pages"].items():
            assert ids.tobytes() == ref_ids.tobytes(), f"workers={n_workers}"
            assert (
                distances.tobytes() == ref_distances.tobytes()
            ), f"workers={n_workers}"

    def test_four_workers_scale(self, payload):
        """≥2.5x qps at 4 workers vs 1 (N=40k, p=128, full inverse)."""
        speedup = payload["data"]["speedup_4_vs_1"]
        print(f"\n4-worker speedup at N={N}, p={P}: {speedup:.2f}x")
        if SMALL:
            pytest.skip("small smoke run: spawn overhead dominates")
        if (os.cpu_count() or 1) < 4:
            pytest.skip(f"needs >=4 cores to scale (have {os.cpu_count()})")
        assert speedup >= 2.5
