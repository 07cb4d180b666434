"""Property tests: batched scans are byte-identical to serial scans.

The satellite contract of the batching subsystem — *how* queries are
coalesced must never leak into *what* they return.  These tests draw
randomly interleaved and randomly coalesced arrival orders over query
mixes spanning both covariance schemes (diagonal and full-inverse
Cholesky kernels), a feature store carrying PCA-prefix companion
blocks (which no scan reads), and tie-heavy data (duplicated rows, so the shared ``(distance, id)``
tie-break is load-bearing) and assert every page matches the query's
solo serial scan byte-for-byte.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import QclusterConfig
from repro.parallel import scan_shard_topk
from repro.retrieval import FeatureDatabase, QclusterMethod, SimulatedUser
from repro.service import BatchingConfig, RetrievalService
from repro.store import FeatureStore, build_store

N = 640
P = 12
N_CATEGORIES = 8
K = 10
ROUNDS = 3


def make_database(seed: int = 11) -> FeatureDatabase:
    """Tie-heavy collection: the second quarter duplicates the first."""
    rng = np.random.default_rng(seed)
    scales = (1.0 / (1.0 + np.arange(P))) ** 0.8
    vectors = 2.0 * rng.standard_normal((N, P)) * scales
    quarter = N // 4
    vectors[quarter : 2 * quarter] = vectors[:quarter]
    labels = np.arange(N) % N_CATEGORIES
    return FeatureDatabase(vectors, labels)


def harvest_queries(database: FeatureDatabase, seed: int) -> list:
    """A deterministic mixed-scheme query pool from feedback replays.

    Round-0 single-point queries compile to diagonal kernels and the
    adaptive feedback queries to Cholesky kernels, so the pool spans
    both compatibility-key shapes.
    """
    rng = np.random.default_rng(seed)
    queries = []
    for scheme in ("diagonal", "inverse"):
        for query_id in rng.integers(0, database.size, size=3):
            method = QclusterMethod(QclusterConfig(scheme=scheme))
            user = SimulatedUser(database, database.category_of(int(query_id)))
            query = method.start(database.vectors[int(query_id)])
            for _ in range(ROUNDS):
                queries.append(query)
                ranked = scan_shard_topk(query, database.vectors, 0, K)[0]
                judgment = user.judge(ranked)
                if judgment.count == 0:
                    break
                query = method.feedback(
                    database.vectors[judgment.relevant_indices], judgment.scores
                )
    return queries


def random_chunks(rng: np.random.Generator, count: int) -> list:
    """A random permutation of ``range(count)`` cut at random points."""
    order = rng.permutation(count)
    cuts = np.sort(rng.choice(count - 1, size=min(5, count - 1), replace=False) + 1)
    return [list(piece) for piece in np.split(order, cuts) if len(piece)]


@pytest.fixture(scope="module")
def tie_database():
    return make_database()


@pytest.fixture(scope="module")
def query_pool(tie_database):
    return harvest_queries(tie_database, seed=29)


class TestRandomCoalescings:
    """scan_batch over random partitions == solo scans, byte-for-byte."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_in_memory_pages_match_serial(self, tie_database, query_pool, seed):
        solo = [
            scan_shard_topk(query, tie_database.vectors, 0, K)[:2]
            for query in query_pool
        ]
        rng = np.random.default_rng(seed)
        with RetrievalService(
            tie_database, k=K, use_index=False, n_shards=1, cache_size=0
        ) as service:
            for chunk in random_chunks(rng, len(query_pool)):
                batched = service.scan_batch(
                    [query_pool[i] for i in chunk], [K] * len(chunk)
                )
                for position, (ids, distances, _reasons) in zip(chunk, batched):
                    solo_ids, solo_distances = solo[position]
                    assert ids.tobytes() == solo_ids.tobytes()
                    assert distances.tobytes() == solo_distances.tobytes()

    @pytest.mark.parametrize("seed", [3, 4])
    def test_store_coarse_pages_match_serial(
        self, tie_database, query_pool, seed, tmp_path_factory
    ):
        """Same property against a feature store carrying PCA-prefix
        ``coarse`` companion blocks; the companions are inert, so the
        store serves the pages and pruning counters of its own float32
        rows held in memory."""
        store_path = build_store(
            tie_database,
            tmp_path_factory.mktemp("det") / "det.qcs",
            n_shards=1,
            coarse_dims=6,
        )
        store = FeatureStore.open(store_path)
        solo = [
            scan_shard_topk(query, store.shard(0), 0, K)[:2] for query in query_pool
        ]
        chunks = random_chunks(np.random.default_rng(seed), len(query_pool))

        def serve(source):
            pages = []
            with RetrievalService(
                source, k=K, use_index=False, n_shards=1, cache_size=0
            ) as service:
                for chunk in chunks:
                    batched = service.scan_batch(
                        [query_pool[i] for i in chunk], [K] * len(chunk)
                    )
                    for position, (ids, distances, _reasons) in zip(chunk, batched):
                        solo_ids, solo_distances = solo[position]
                        assert ids.tobytes() == solo_ids.tobytes()
                        assert distances.tobytes() == solo_distances.tobytes()
                        pages.append((ids.tobytes(), distances.tobytes()))
                counters = service.metrics_snapshot()["counters"]
            pruning = {
                name: counters.get(name, 0)
                for name in ("candidates_pruned", "candidates_refined")
            }
            return pages, pruning

        in_memory = np.array(store.shard(0), dtype=np.float32)
        assert serve(store) == serve(in_memory)


class TestRandomInterleavings:
    """Concurrent sessions through the *real* executor == serial replay."""

    @pytest.mark.parametrize("scheme", ["diagonal", "inverse"])
    def test_concurrent_sessions_match_serial(self, tie_database, scheme):
        def run_sessions(service, query_ids, *, gate=None):
            pages = {}

            def session(index, query_id):
                if gate is not None:
                    gate.wait()
                user = SimulatedUser(
                    tie_database, tie_database.category_of(query_id)
                )
                session_id = service.create_session(
                    query_id, session_id=f"det-{index}"
                )
                page = service.query(session_id)
                pages[(index, 0)] = (page.ids.tobytes(), page.distances.tobytes())
                for round_index in range(1, ROUNDS + 1):
                    judgment = user.judge(page.ids)
                    page = service.feedback(
                        session_id, judgment.relevant_indices, judgment.scores
                    )
                    pages[(index, round_index)] = (
                        page.ids.tobytes(),
                        page.distances.tobytes(),
                    )
                service.close(session_id)

            if gate is None:
                for index, query_id in enumerate(query_ids):
                    session(index, query_id)
            else:
                threads = [
                    threading.Thread(target=session, args=(index, query_id))
                    for index, query_id in enumerate(query_ids)
                ]
                for thread in threads:
                    thread.start()
                gate.wait()
                for thread in threads:
                    thread.join()
            return pages

        query_ids = [3, 7, 160, 161, 320, 481, 5, 162]  # includes tied twins
        kwargs = dict(
            k=K,
            use_index=False,
            n_shards=1,
            cache_size=0,
            method_factory=lambda: QclusterMethod(QclusterConfig(scheme=scheme)),
        )
        with RetrievalService(tie_database, **kwargs) as service:
            serial = run_sessions(service, query_ids)
        with RetrievalService(
            tie_database,
            batching=BatchingConfig(max_batch=8, max_wait_s=0.01),
            **kwargs,
        ) as service:
            gate = threading.Barrier(len(query_ids) + 1)
            batched = run_sessions(service, query_ids, gate=gate)
            stats = service.batching.stats()
        assert batched == serial
        assert stats["batched_queries"] == len(query_ids) * (ROUNDS + 1)
