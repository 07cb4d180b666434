"""The tree's row-budgeted approximate search and its calibration.

The page-level contract (the exact top-k over exactly the leaves read,
which are a prefix of the bound order) is pinned by the hypothesis
tests in ``test_tree_oracle.py``; this module covers calibration,
degenerate inputs, validation, cost accounting and fault injection.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.core.progressive import exact_top_k
from repro.faults import FaultPlan, FaultSpec, InjectedFault, activate_faults
from repro.index import tree as tree_module
from repro.index.linear import LinearScan
from repro.index.tree import HybridTree


def single_query(center):
    center = np.asarray(center, dtype=float)
    return DisjunctiveQuery(
        [QueryPoint(center=center, inverse=np.eye(center.shape[0]), weight=1.0)]
    )


def budgeted(tree, row_budget):
    """The tree with its calibrated budget replaced."""
    tree.calibrate()
    tree.row_budget = row_budget
    return tree


def clustered(rng, n_per=150, dim=4, offsets=(0.0, 12.0, -12.0)):
    return np.vstack([rng.normal(offset, 0.6, (n_per, dim)) for offset in offsets])


class TestCalibration:
    def test_deterministic(self, rng):
        vectors = rng.standard_normal((3000, 6))
        first, second = HybridTree(vectors), HybridTree(vectors)
        first.calibrate()
        second.calibrate()
        assert first.row_budget == second.row_budget
        assert first.calibrated_recall == second.calibrated_recall

    def test_idempotent_and_lazy(self, rng):
        tree = HybridTree(rng.standard_normal((2000, 6)))
        assert tree.row_budget is None and tree.calibrated_recall is None
        tree.approximate_knn(single_query(np.zeros(6)), 5)
        budget = tree.row_budget
        assert 1 <= budget <= 2000
        tree.calibrate()
        assert tree.row_budget == budget

    def test_recall_reaches_the_target_on_its_own_probes(self, rng):
        """Re-run the calibration probes through the served search: the
        mean share of each probe's Euclidean neighbours on its page is at
        least the target, and matches the stamp."""
        vectors = rng.standard_normal((4000, 8))
        tree = HybridTree(vectors)
        tree.calibrate()
        assert tree.calibrated_recall >= tree_module._CALIBRATION_TARGET
        assert tree.row_budget < vectors.shape[0]  # a real approximation
        k = tree_module._CALIBRATION_K
        probes = np.random.default_rng(tree_module._CALIBRATION_SEED).choice(
            vectors.shape[0], size=tree_module._CALIBRATION_QUERIES, replace=False
        )
        recalls = []
        for row in probes.tolist():
            page = tree.approximate_knn(single_query(vectors[row]), k)
            truth = exact_top_k(np.sum((vectors - vectors[row]) ** 2, axis=1), k)
            recalls.append(len(set(page.indices.tolist()) & set(truth.tolist())) / k)
        assert np.mean(recalls) >= tree_module._CALIBRATION_TARGET
        assert np.mean(recalls) == pytest.approx(tree.calibrated_recall, abs=0.02)

    def test_one_leaf_gets_every_row_and_full_recall(self, rng):
        vectors = rng.standard_normal((120, 3))
        tree = HybridTree(vectors)
        assert tree.leaves.shape == (1,)
        tree.calibrate()
        assert tree.row_budget == 120
        assert tree.calibrated_recall == 1.0

    def test_calibration_is_not_a_fault_target(self, rng):
        """Build-time probes must not consume or trip fault plans —
        injection belongs to the serving path only."""
        plan = FaultPlan(
            specs=(FaultSpec(site="index.descend", kind="error", probability=1.0),)
        )
        tree = HybridTree(rng.standard_normal((300, 3)), leaf_capacity=16)
        with activate_faults(plan) as active:
            tree.calibrate()
        assert active.stats()["total_fires"] == 0
        assert 0.0 < tree.calibrated_recall <= 1.0


class TestSearch:
    def test_high_recall_on_separated_clusters(self, rng):
        vectors = clustered(rng)
        tree = HybridTree(vectors, leaf_capacity=32)
        query = single_query(vectors[5])
        approximate = tree.approximate_knn(query, 10)
        exact = LinearScan(vectors).knn(query, 10)
        overlap = set(map(int, approximate.indices)) & set(map(int, exact.indices))
        assert len(overlap) >= 8

    def test_cost_accounting(self, rng):
        vectors = rng.standard_normal((400, 3))
        tree = budgeted(HybridTree(vectors, leaf_capacity=16), 50)
        result = tree.approximate_knn(single_query(vectors[0]), 10)
        cost = result.cost
        assert cost.node_accesses == cost.io_accesses >= 1
        assert cost.cached_accesses == 0
        assert 50 <= cost.distance_evaluations < 50 + 16
        assert cost.candidates_pruned == 400 - cost.distance_evaluations

    def test_stats_surface(self, rng):
        tree = HybridTree(rng.standard_normal((500, 3)), leaf_capacity=16)
        tree.calibrate()
        stats = tree.stats()
        assert stats["n_leaves"] == len(tree.leaf_sizes()) > 1
        assert stats["n_nodes"] == tree.n_nodes
        assert stats["row_budget"] == tree.row_budget
        assert stats["calibrated_recall"] == tree.calibrated_recall


class TestDegenerateLeaves:
    """Duplicate rows, zero-variance dimensions and k > n must keep both
    searches sound."""

    def test_duplicate_rows_exact_search(self):
        vectors = np.ones((60, 3))
        tree = HybridTree(vectors, leaf_capacity=16)
        result = tree.knn(single_query(np.ones(3)), 5)
        np.testing.assert_array_equal(result.indices, np.arange(5))  # id tie-break
        np.testing.assert_array_equal(result.distances, np.zeros(5))

    def test_duplicate_rows_approximate_search(self):
        vectors = np.ones((60, 3))
        tree = HybridTree(vectors, leaf_capacity=16)
        # Zero spread: the build must stop at one oversized leaf
        # instead of recursing forever.
        assert tree.leaf_sizes() == [60]
        result = tree.approximate_knn(single_query(np.ones(3)), 5)
        np.testing.assert_array_equal(result.indices, np.arange(5))  # id tie-break
        np.testing.assert_array_equal(result.distances, np.zeros(5))

    def test_zero_variance_dimensions(self, rng):
        # Only coordinate 1 varies: the split must lock onto it and both
        # searches must agree with the linear scan.
        vectors = np.zeros((200, 4))
        vectors[:, 1] = rng.standard_normal(200)
        query = single_query(vectors[17])
        exact = LinearScan(vectors).knn(query, 10)
        tree = HybridTree(vectors, leaf_capacity=16)
        hybrid = tree.knn(query, 10)
        np.testing.assert_array_equal(np.sort(hybrid.indices), np.sort(exact.indices))
        approximate = tree.approximate_knn(query, 10)
        overlap = set(map(int, approximate.indices)) & set(map(int, exact.indices))
        assert len(overlap) >= 8

    def test_k_above_the_database_size(self, rng):
        """Both searches return every row they scored once, ranked,
        rather than raising or padding."""
        vectors = rng.standard_normal((7, 3))
        query = single_query(vectors[0])
        tree = HybridTree(vectors, leaf_capacity=4)
        assert tree.knn(query, 20).indices.shape == (7,)
        result = budgeted(tree, 1).approximate_knn(query, 20)
        assert result.indices.shape[0] == result.cost.distance_evaluations < 7
        assert len(set(map(int, result.indices))) == result.indices.shape[0]
        assert np.all(np.diff(result.distances) >= 0)


class TestValidation:
    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError):
            HybridTree(np.empty((0, 3)))
        with pytest.raises(ValueError):
            HybridTree(rng.standard_normal((5, 3)), leaf_capacity=0)
        tree = HybridTree(rng.standard_normal((50, 3)), leaf_capacity=16)
        with pytest.raises(ValueError):
            tree.approximate_knn(single_query(np.zeros(4)), 5)
        with pytest.raises(ValueError):
            tree.approximate_knn(single_query(np.zeros(3)), 0)


class TestFaultInjection:
    def test_descend_site_fires_once_per_leaf_read(self, rng):
        vectors = rng.standard_normal((300, 3))
        tree = budgeted(HybridTree(vectors, leaf_capacity=16), 40)
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    site="index.descend", kind="latency", probability=1.0, latency_s=1e-6
                ),
            )
        )
        with activate_faults(plan) as active:
            result = tree.approximate_knn(single_query(vectors[0]), 5)
        assert active.stats()["total_fires"] == result.cost.node_accesses > 1

    def test_descend_site_aborts_the_search(self, rng):
        vectors = rng.standard_normal((300, 3))
        tree = HybridTree(vectors, leaf_capacity=16)
        plan = FaultPlan(specs=(FaultSpec(site="index.descend", kind="error", at=(1,)),))
        with activate_faults(plan):
            with pytest.raises(InjectedFault):
                tree.approximate_knn(single_query(vectors[0]), 5)
