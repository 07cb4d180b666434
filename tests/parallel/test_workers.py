"""Worker-side plumbing: query payloads, the shared scan kernel, the pool."""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.baselines.base import PowerMeanQuery
from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.core.progressive import exact_top_k
from repro.parallel import ShardWorkerPool
from repro.parallel.workers import decode_query, encode_query, scan_shard_topk
from repro.store import FeatureStore, build_store


def make_disjunctive(rng, dim=4, g=2, diagonal=False):
    points = []
    for _ in range(g):
        if diagonal:
            diag = rng.uniform(0.5, 2.0, size=dim)
            inverse = np.diag(diag)
        else:
            diag = None
            basis = rng.normal(size=(dim, dim))
            inverse = basis @ basis.T + dim * np.eye(dim)
        points.append(
            QueryPoint(
                center=rng.normal(size=dim),
                inverse=inverse,
                weight=float(rng.uniform(0.5, 2.0)),
                diagonal=diag,
            )
        )
    return DisjunctiveQuery(points)


class PickleOnlyQuery:
    """A query type encode_query has never heard of."""

    def __init__(self, center):
        self.center = np.asarray(center, dtype=float)

    def distances(self, matrix):
        return np.linalg.norm(np.asarray(matrix, dtype=float) - self.center, axis=1)


class TestQueryPayloads:
    def test_disjunctive_round_trip(self, rng):
        query = make_disjunctive(rng)
        payload = encode_query(query)
        assert payload["kind"] == "disjunctive"
        clone = decode_query(payload)
        matrix = rng.normal(size=(50, 4))
        np.testing.assert_array_equal(clone.distances(matrix), query.distances(matrix))

    def test_diagonal_flag_survives(self, rng):
        query = make_disjunctive(rng, diagonal=True)
        clone = decode_query(encode_query(query))
        assert all(point.diagonal is not None for point in clone.points)
        matrix = rng.normal(size=(20, 4))
        np.testing.assert_array_equal(clone.distances(matrix), query.distances(matrix))

    def test_power_mean_round_trip(self, rng):
        dim = 3
        query = PowerMeanQuery(
            centers=rng.normal(size=(2, dim)),
            inverses=(np.eye(dim), 2.0 * np.eye(dim)),
            weights=np.array([1.0, 2.0]),
            alpha=-2.0,
        )
        payload = encode_query(query)
        assert payload["kind"] == "power_mean"
        clone = decode_query(payload)
        matrix = rng.normal(size=(30, dim))
        np.testing.assert_array_equal(clone.distances(matrix), query.distances(matrix))
        assert clone.alpha == query.alpha

    def test_unknown_type_falls_back_to_pickle(self, rng):
        query = PickleOnlyQuery(rng.normal(size=3))
        payload = encode_query(query)
        assert payload["kind"] == "pickle"
        clone = decode_query(payload)
        matrix = rng.normal(size=(10, 3))
        np.testing.assert_array_equal(clone.distances(matrix), query.distances(matrix))

    def test_unknown_payload_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown query payload"):
            decode_query({"kind": "carrier-pigeon"})


class TestScanShardTopk:
    def test_matches_exact_top_k_with_offset(self, rng):
        query = make_disjunctive(rng, dim=5)
        shard = np.ascontiguousarray(rng.normal(size=(80, 5)), dtype="<f4")
        ids, distances, pruned, refined = scan_shard_topk(query, shard, 100, k=7)
        reference = query.distances(shard)
        top = exact_top_k(reference, 7)
        np.testing.assert_array_equal(ids, top + 100)
        np.testing.assert_array_equal(distances, reference[top])
        assert pruned + refined == 80

    def test_k_clamped_to_shard_size(self, rng):
        query = make_disjunctive(rng, dim=3)
        shard = np.ascontiguousarray(rng.normal(size=(4, 3)), dtype="<f4")
        ids, distances, _, _ = scan_shard_topk(query, shard, 0, k=10)
        assert len(ids) == 4 == len(distances)


def settled_stats(pool, busy=0, timeout=2.0):
    """Poll until done-callbacks drain (they run on an executor thread)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = pool.stats()
        if stats["busy"] == busy:
            return stats
        time.sleep(0.01)
    return pool.stats()


class TestShardWorkerPool:
    def test_rejects_zero_workers(self, tmp_path):
        with pytest.raises(ValueError):
            ShardWorkerPool(tmp_path / "x.qcs", n_workers=0)

    def test_pool_scans_match_serial_and_stats_settle(self, tmp_path, rng):
        vectors = rng.normal(size=(90, 4))
        path = build_store(vectors, tmp_path / "p.qcs", n_shards=3)
        store = FeatureStore.open(path)
        query = make_disjunctive(rng)
        payload = encode_query(query)
        with ShardWorkerPool(path, n_workers=1) as pool:
            for index in range(store.n_shards):
                [(ids, distances, _, _)] = pool.submit_batch(
                    index, [payload], [5]
                ).result()
                offset = store.row_offsets[index]
                expected = scan_shard_topk(query, store.shard(index), offset, 5)
                np.testing.assert_array_equal(ids, expected[0])
                np.testing.assert_array_equal(distances, expected[1])
            # A failing task pickles its exception back and is counted.
            with pytest.raises(IndexError):
                pool.submit_batch(99, [payload], [5]).result()
            stats = settled_stats(pool)
            assert stats["workers"] == 1
            assert stats["tasks_completed"] == store.n_shards
            assert stats["tasks_failed"] == 1
            assert stats["peak_busy"] >= 1
        pool.shutdown()  # idempotent after context-manager exit


class TestPoolBatchScan:
    def test_submit_batch_matches_solo_scans(self, tmp_path, rng):
        """One worker round-trip serves a whole micro-batch, each page
        byte-identical to its solo scan."""
        vectors = rng.normal(size=(120, 4))
        path = build_store(vectors, tmp_path / "b.qcs", n_shards=2)
        store = FeatureStore.open(path)
        queries = [make_disjunctive(rng), make_disjunctive(rng, diagonal=True)]
        payloads = [encode_query(query) for query in queries]
        ks = [5, 7]
        with ShardWorkerPool(path, n_workers=1) as pool:
            for index in range(store.n_shards):
                results = pool.submit_batch(index, payloads, ks).result()
                assert len(results) == len(queries)
                offset = store.row_offsets[index]
                for query, k, (ids, distances, _, _) in zip(queries, ks, results):
                    solo = scan_shard_topk(query, store.shard(index), offset, k)
                    assert ids.tobytes() == solo[0].tobytes()
                    assert distances.tobytes() == solo[1].tobytes()
            stats = settled_stats(pool)
            assert stats["tasks_completed"] == store.n_shards


class TestPoolStatsLockSplit:
    """Regression tests for the stats/lifecycle lock split: metric reads
    must never block behind a (slow) worker spawn, and accounting must
    stay consistent around submit failures."""

    def test_stats_do_not_block_behind_the_lifecycle_lock(self, tmp_path):
        pool = ShardWorkerPool(tmp_path / "s.qcs", n_workers=1)
        with pool._lock:  # simulates a spawn in progress
            done = []

            def read():
                done.append((pool.stats(), pool.busy))

            reader = threading.Thread(target=read)
            reader.start()
            reader.join(timeout=2.0)
            assert not reader.is_alive(), "stats() blocked behind _lock"
        assert done and done[0][0]["busy"] == 0

    def test_failed_submit_rolls_back_in_flight(self, tmp_path):
        pool = ShardWorkerPool(tmp_path / "s.qcs", n_workers=1)

        def boom():
            raise RuntimeError("executor refused")

        with pytest.raises(RuntimeError, match="executor refused"):
            pool._track_submit(boom)
        stats = pool.stats()
        assert stats["busy"] == 0
        assert stats["peak_busy"] == 1
        assert stats["tasks_completed"] == 0
        assert stats["tasks_failed"] == 0

    def test_done_callback_classifies_outcomes(self, tmp_path):
        pool = ShardWorkerPool(tmp_path / "s.qcs", n_workers=1)
        ok, bad, dropped = Future(), Future(), Future()
        for future in (ok, bad, dropped):
            pool._track_submit(lambda future=future: future)
        assert pool.busy == 3
        ok.set_result([])
        bad.set_exception(ValueError("scan failed"))
        dropped.cancel()
        dropped.set_running_or_notify_cancel()
        stats = settled_stats(pool)
        assert stats["busy"] == 0
        assert stats["peak_busy"] == 3
        assert stats["tasks_completed"] == 1
        assert stats["tasks_failed"] == 2
