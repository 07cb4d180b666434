"""Property-based tests: the tree agrees with the scan on arbitrary data."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.index.tree import HybridTree
from repro.index.linear import LinearScan

data_matrices = arrays(
    np.float64,
    hst.tuples(hst.integers(min_value=5, max_value=120), hst.just(3)),
    elements=hst.floats(min_value=-50.0, max_value=50.0, allow_nan=False),
)


def single_point_query(center: np.ndarray) -> DisjunctiveQuery:
    return DisjunctiveQuery(
        [QueryPoint(center=center, inverse=np.eye(center.shape[0]), weight=1.0)]
    )


def two_point_query(a: np.ndarray, b: np.ndarray) -> DisjunctiveQuery:
    return DisjunctiveQuery(
        [
            QueryPoint(center=a, inverse=np.eye(a.shape[0]), weight=2.0),
            QueryPoint(center=b, inverse=np.eye(b.shape[0]), weight=1.0),
        ]
    )


class TestTreeScanAgreement:
    @given(data_matrices, hst.integers(min_value=1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_knn_distances_match(self, vectors, k):
        tree = HybridTree(vectors, leaf_capacity=8)
        scan = LinearScan(vectors)
        query = single_point_query(vectors[0])
        tree_result = tree.knn(query, k)
        scan_result = scan.knn(query, k)
        np.testing.assert_allclose(
            np.sort(tree_result.distances), np.sort(scan_result.distances), atol=1e-8
        )

    @given(data_matrices)
    @settings(max_examples=30, deadline=None)
    def test_multipoint_knn_matches(self, vectors):
        tree = HybridTree(vectors, leaf_capacity=8)
        scan = LinearScan(vectors)
        query = two_point_query(vectors[0], vectors[-1])
        k = min(8, vectors.shape[0])
        tree_result = tree.knn(query, k)
        scan_result = scan.knn(query, k)
        np.testing.assert_allclose(
            np.sort(tree_result.distances), np.sort(scan_result.distances), atol=1e-8
        )

    @given(data_matrices)
    @settings(max_examples=30, deadline=None)
    def test_knn_result_is_sorted_and_exactly_k(self, vectors):
        tree = HybridTree(vectors, leaf_capacity=8)
        k = min(6, vectors.shape[0])
        result = tree.knn(single_point_query(vectors[0]), k)
        assert result.indices.shape == (k,)
        assert np.all(np.diff(result.distances) >= -1e-12)
        assert result.distances[0] == pytest.approx(0.0, abs=1e-12)
