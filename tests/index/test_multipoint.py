"""Session-level searchers: cached multipoint vs per-centroid baseline."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.index.tree import HybridTree
from repro.index.multipoint import CentroidSearcher, MultipointSearcher


def query_of(vectors, indices, weight=1.0):
    dim = vectors.shape[1]
    return DisjunctiveQuery(
        [
            QueryPoint(center=vectors[i], inverse=np.eye(dim), weight=weight)
            for i in indices
        ]
    )


@pytest.fixture
def tree(rng):
    vectors = np.vstack(
        [rng.normal(offset, 1.0, (300, 3)) for offset in (0.0, 15.0)]
    )
    return HybridTree(vectors, leaf_capacity=16)


class TestMultipointSearcher:
    def test_cache_reduces_io_across_iterations(self, tree):
        searcher = MultipointSearcher(tree)
        query = query_of(tree.vectors, [0, 350])
        first = searcher.search(query, 50)
        # A slightly refined query revisits mostly the same nodes.
        refined = query_of(tree.vectors, [1, 351])
        second = searcher.search(refined, 50)
        assert second.cost.io_accesses < first.cost.io_accesses
        assert second.cost.cached_accesses > 0
        assert searcher.log.io_accesses[0] > searcher.log.io_accesses[1]

    def test_reset_clears_cache(self, tree):
        searcher = MultipointSearcher(tree)
        query = query_of(tree.vectors, [0])
        searcher.search(query, 10)
        assert searcher.cache_size > 0
        searcher.reset()
        assert searcher.cache_size == 0
        assert searcher.log.per_iteration == []

    def test_results_are_exact(self, tree):
        searcher = MultipointSearcher(tree)
        query = query_of(tree.vectors, [0, 350])
        result = searcher.search(query, 20)
        brute = np.argsort(query.distances(tree.vectors))[:20]
        np.testing.assert_allclose(
            np.sort(result.distances),
            np.sort(query.distances(tree.vectors)[brute]),
            rtol=1e-9,
        )


class TestCentroidSearcher:
    def test_costs_scale_with_representatives(self, tree):
        searcher = CentroidSearcher(tree)
        single = searcher.search(query_of(tree.vectors, [0]), 20)
        searcher.reset()
        triple = searcher.search(query_of(tree.vectors, [0, 350, 100]), 20)
        assert triple.cost.io_accesses > single.cost.io_accesses

    def test_multipoint_cheaper_over_session(self, tree):
        """The Figure 7 claim: cached multipoint beats centroid re-query."""
        queries = [
            query_of(tree.vectors, [i, 350 + i]) for i in range(5)
        ]
        multipoint = MultipointSearcher(tree)
        centroid = CentroidSearcher(tree)
        for query in queries:
            multipoint.search(query, 50)
            centroid.search(query, 50)
        assert multipoint.log.total_io < centroid.log.total_io
        # And the gap widens after the first iteration.
        assert sum(multipoint.log.io_accesses[1:]) < sum(centroid.log.io_accesses[1:])

    def test_ranking_still_uses_aggregate_distance(self, tree):
        searcher = CentroidSearcher(tree)
        query = query_of(tree.vectors, [0, 350])
        result = searcher.search(query, 10)
        distances = query.distances(tree.vectors)[result.indices]
        np.testing.assert_allclose(result.distances, distances, rtol=1e-9)
        assert np.all(np.diff(result.distances) >= -1e-12)
