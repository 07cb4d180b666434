"""Bucketed kd tree: exactness vs linear scan, pruning, cost accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.covariance import DiagonalScheme, InverseScheme
from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.index.tree import HybridTree
from repro.index.linear import LinearScan


def multipoint_query(centers, inverses, weights):
    return DisjunctiveQuery(
        [
            QueryPoint(center=np.asarray(c, dtype=float), inverse=inv, weight=w)
            for c, inv, w in zip(centers, inverses, weights)
        ]
    )


def random_queries(rng, vectors, n_queries=10):
    """A mix of single-point and multipoint, diagonal and full inverses."""
    dim = vectors.shape[1]
    queries = []
    for i in range(n_queries):
        g = 1 + i % 3
        centers = vectors[rng.choice(vectors.shape[0], g, replace=False)]
        inverses = []
        for j in range(g):
            if (i + j) % 2 == 0:
                inverses.append(np.diag(rng.uniform(0.5, 3.0, dim)))
            else:
                raw = rng.standard_normal((dim + 2, dim))
                inverses.append(raw.T @ raw / (dim + 2) + 0.5 * np.eye(dim))
        weights = rng.uniform(1.0, 5.0, g)
        queries.append(multipoint_query(centers, inverses, weights))
    return queries


class TestExactness:
    def test_matches_linear_scan_over_many_queries(self, rng):
        vectors = rng.standard_normal((400, 4))
        tree = HybridTree(vectors, leaf_capacity=16)
        scan = LinearScan(vectors)
        for query in random_queries(rng, vectors, n_queries=12):
            tree_result = tree.knn(query, 10)
            scan_result = scan.knn(query, 10)
            np.testing.assert_allclose(
                np.sort(tree_result.distances), np.sort(scan_result.distances), rtol=1e-9
            )

    def test_matches_on_clustered_data(self, rng):
        vectors = np.vstack(
            [rng.normal(offset, 0.5, (100, 3)) for offset in (0.0, 10.0, -10.0)]
        )
        tree = HybridTree(vectors, leaf_capacity=8)
        scan = LinearScan(vectors)
        query = multipoint_query(
            [vectors[5], vectors[150]], [np.eye(3), np.eye(3)], [1.0, 1.0]
        )
        tree_result = tree.knn(query, 20)
        scan_result = scan.knn(query, 20)
        np.testing.assert_array_equal(
            np.sort(tree_result.indices), np.sort(scan_result.indices)
        )

    def test_duplicate_points(self):
        vectors = np.ones((50, 3))
        tree = HybridTree(vectors, leaf_capacity=8)
        query = multipoint_query([np.ones(3)], [np.eye(3)], [1.0])
        result = tree.knn(query, 5)
        assert result.indices.shape == (5,)

    @pytest.mark.parametrize("alpha", [1.0, -2.0, -5.0])
    def test_power_mean_queries_match_scan(self, rng, alpha):
        """Baseline PowerMeanQuery objects work through the tree too."""
        from repro.baselines.base import PowerMeanQuery
        from repro.index.linear import LinearScan

        vectors = rng.standard_normal((300, 3))
        tree = HybridTree(vectors, leaf_capacity=16)
        scan = LinearScan(vectors)
        query = PowerMeanQuery(
            centers=vectors[[0, 100]],
            inverses=(np.eye(3), np.diag([2.0, 1.0, 0.5])),
            weights=np.array([1.0, 3.0]),
            alpha=alpha,
        )
        tree_result = tree.knn(query, 15)
        scan_result = scan.knn(query, 15)
        np.testing.assert_allclose(
            np.sort(tree_result.distances), np.sort(scan_result.distances), rtol=1e-9
        )


class TestPruning:
    def test_prunes_far_subtrees(self, rng):
        # Two distant blobs: a query inside one should not touch most of
        # the other blob's leaves.
        vectors = np.vstack(
            [rng.normal(0.0, 0.5, (500, 3)), rng.normal(100.0, 0.5, (500, 3))]
        )
        tree = HybridTree(vectors, leaf_capacity=16)
        query = multipoint_query([vectors[3]], [np.eye(3)], [1.0])
        result = tree.knn(query, 10)
        # Far fewer distance evaluations than the full database.
        assert result.cost.distance_evaluations < 500

    def test_node_cache_counts_hits(self, rng):
        vectors = rng.standard_normal((300, 3))
        tree = HybridTree(vectors, leaf_capacity=16)
        query = multipoint_query([vectors[0]], [np.eye(3)], [1.0])
        cache: set = set()
        first = tree.knn(query, 10, node_cache=cache)
        assert first.cost.cached_accesses == 0
        assert first.cost.io_accesses == first.cost.node_accesses
        second = tree.knn(query, 10, node_cache=cache)
        assert second.cost.io_accesses == 0
        assert second.cost.cached_accesses == second.cost.node_accesses


class TestStructure:
    def test_leaf_capacity_respected(self, rng):
        vectors = rng.standard_normal((200, 3))
        tree = HybridTree(vectors, leaf_capacity=10)
        assert max(tree.leaf_sizes()) <= 10
        # A partition: every row sits in exactly one leaf.
        assert sum(tree.leaf_sizes()) == 200
        np.testing.assert_array_equal(np.sort(tree.rows), np.arange(200))

    def test_mbrs_contain_children(self, rng):
        vectors = rng.standard_normal((150, 4))
        tree = HybridTree(vectors, leaf_capacity=12)
        for node in range(tree.n_nodes):
            # Each node's box is exactly the box of its own rows.
            subset = vectors[tree.rows[tree.start[node] : tree.stop[node]]]
            np.testing.assert_array_equal(tree.low[node], subset.min(axis=0))
            np.testing.assert_array_equal(tree.high[node], subset.max(axis=0))
            if tree.left[node] < 0:
                continue
            left, right = tree.left[node], tree.right[node]
            # Pre-order ids; the children tile the parent's row range.
            assert left == node + 1 and right > left
            assert tree.start[left] == tree.start[node]
            assert tree.stop[left] == tree.start[right]
            assert tree.stop[right] == tree.stop[node]
            for child in (left, right):
                assert np.all(tree.low[child] >= tree.low[node])
                assert np.all(tree.high[child] <= tree.high[node])

    def test_validation(self, rng):
        with pytest.raises(ValueError):
            HybridTree(np.empty((0, 3)))
        with pytest.raises(ValueError):
            HybridTree(rng.standard_normal((5, 3)), leaf_capacity=0)
        tree = HybridTree(rng.standard_normal((20, 3)), leaf_capacity=8)
        with pytest.raises(ValueError):
            tree.knn(multipoint_query([np.zeros(4)], [np.eye(4)], [1.0]), 3)
        with pytest.raises(ValueError):
            tree.knn(multipoint_query([np.zeros(3)], [np.eye(3)], [1.0]), 0)
