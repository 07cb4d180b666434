"""Spill / RP trees: structure, defeatist soundness, degenerate leaves."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.core.progressive import exact_top_k
from repro.faults import FaultPlan, FaultSpec, InjectedFault, activate_faults
from repro.index.tree import HybridTree
from repro.index.linear import LinearScan
from repro.index.tree import SpillTree, SpillTreeConfig


def single_query(center, dim=None):
    center = np.asarray(center, dtype=float)
    return DisjunctiveQuery(
        [QueryPoint(center=center, inverse=np.eye(center.shape[0]), weight=1.0)]
    )


def multipoint_query(centers):
    dim = np.asarray(centers[0]).shape[0]
    return DisjunctiveQuery(
        [
            QueryPoint(center=np.asarray(c, dtype=float), inverse=np.eye(dim), weight=1.0)
            for c in centers
        ]
    )


def clustered(rng, n_per=150, dim=4, offsets=(0.0, 12.0, -12.0)):
    return np.vstack(
        [rng.normal(offset, 0.6, (n_per, dim)) for offset in offsets]
    )


def gathered(tree, node=0):
    """Union of leaf indices in the subtree rooted at ``node``."""
    return set(tree.rows[tree.start[node] : tree.stop[node]].tolist())


def projection(tree, node, point):
    """The routing scalar of one point at an internal node."""
    if tree.axis[node] >= 0:
        return float(point[tree.axis[node]])
    return float(point @ tree.direction[node])


class TestStructure:
    def test_leaf_capacity_respected(self, rng):
        vectors = rng.standard_normal((500, 4))
        tree = SpillTree(vectors, SpillTreeConfig(leaf_capacity=32))
        assert max(tree.leaf_sizes()) <= 32

    def test_spill_children_overlap_by_the_buffer(self, rng):
        """Left holds projections <= high, right >= low, and together
        they cover the parent — the defining spill-tree invariant."""
        vectors = rng.standard_normal((400, 4))
        tree = SpillTree(vectors, SpillTreeConfig(spill=0.3, leaf_capacity=32))

        def check(node, members):
            if tree.left[node] < 0:
                assert gathered(tree, node) == members
                return
            assert tree.low[node] <= tree.route[node] <= tree.high[node]
            left = gathered(tree, tree.left[node])
            right = gathered(tree, tree.right[node])
            assert left | right == members
            for i in left:
                assert projection(tree, node, vectors[i]) <= tree.high[node]
            for i in right:
                assert projection(tree, node, vectors[i]) >= tree.low[node]
            check(tree.left[node], left)
            check(tree.right[node], right)

        check(0, set(range(400)))
        # A 0.3 spill with real spread must actually share points, and
        # a shared row appears once per leaf holding it.
        shared = gathered(tree, tree.left[0]) & gathered(tree, tree.right[0])
        assert shared
        assert tree.rows.shape[0] == sum(tree.leaf_sizes()) > 400

    def test_zero_spill_is_nearly_a_partition(self, rng):
        """No spill buffer: only rows tied exactly at a median can land
        in both children, so duplication stays negligible."""
        vectors = rng.standard_normal((300, 3))
        tree = SpillTree(vectors, SpillTreeConfig(spill=0.0, leaf_capacity=32))
        sizes = tree.leaf_sizes()
        assert gathered(tree) == set(range(300))  # full coverage
        assert sum(sizes) - 300 <= tree.stats()["n_leaves"]

    def test_rp_rule_builds_and_is_seeded(self, rng):
        vectors = rng.standard_normal((300, 6))
        config = SpillTreeConfig(rule="rp", leaf_capacity=32, seed=5)
        first, second = SpillTree(vectors, config), SpillTree(vectors, config)
        assert first.leaf_sizes() == second.leaf_sizes()
        result_a = first.defeatist_search(single_query(vectors[0]), 10)
        result_b = second.defeatist_search(single_query(vectors[0]), 10)
        np.testing.assert_array_equal(result_a.indices, result_b.indices)

    def test_stats_surface(self, rng):
        tree = SpillTree(rng.standard_normal((200, 3)), SpillTreeConfig(leaf_capacity=32))
        stats = tree.stats()
        for key in ("rule", "spill", "max_leaves", "n_nodes", "n_leaves",
                    "leaf_capacity", "calibrated_recall"):
            assert key in stats
        assert stats["n_leaves"] == len(tree.leaf_sizes())


class TestDefeatistSearch:
    def test_ranking_is_exact_over_reached_candidates(self, rng):
        """The only approximation is *which* rows are scored: over the
        reached candidate set the ranking must equal exact_top_k with
        the shared (distance, id) tie-break."""
        vectors = clustered(rng)
        tree = SpillTree(vectors, SpillTreeConfig(leaf_capacity=32))
        query = multipoint_query([vectors[10], vectors[200]])
        result = tree.defeatist_search(query, 15)
        candidates, _ = tree.candidates_for(query)
        distances = query.distances(vectors[candidates])
        order = exact_top_k(distances, 15, tie_break=candidates)
        np.testing.assert_array_equal(result.indices, candidates[order])
        np.testing.assert_array_equal(result.distances, distances[order])
        assert np.all(np.diff(result.distances) >= 0)

    def test_high_recall_on_separated_clusters(self, rng):
        vectors = clustered(rng)
        tree = SpillTree(vectors, SpillTreeConfig(leaf_capacity=32))
        scan = LinearScan(vectors)
        query = single_query(vectors[5])
        approximate = tree.defeatist_search(query, 10)
        exact = scan.knn(query, 10)
        overlap = set(map(int, approximate.indices)) & set(map(int, exact.indices))
        assert len(overlap) >= 8

    def test_spill_buys_recall(self, rng):
        vectors = rng.standard_normal((600, 6))
        scan = LinearScan(vectors)
        queries = [single_query(vectors[i]) for i in (3, 77, 240, 511)]

        def mean_recall(spill):
            tree = SpillTree(
                vectors, SpillTreeConfig(spill=spill, leaf_capacity=32, max_leaves=6)
            )
            hits = 0
            for query in queries:
                exact = set(map(int, scan.knn(query, 10).indices))
                got = set(map(int, tree.defeatist_search(query, 10).indices))
                hits += len(exact & got)
            return hits / (10 * len(queries))

        assert mean_recall(0.4) > mean_recall(0.0)

    def test_single_leaf_classic_defeatist(self, rng):
        vectors = rng.standard_normal((300, 3))
        tree = SpillTree(
            vectors, SpillTreeConfig(spill=0.0, max_leaves=1, leaf_capacity=32)
        )
        result = tree.defeatist_search(single_query(vectors[0]), 5)
        assert result.n_candidates <= 32
        assert result.indices.shape == (5,)

    def test_cost_accounting(self, rng):
        vectors = rng.standard_normal((400, 3))
        tree = SpillTree(vectors, SpillTreeConfig(leaf_capacity=32))
        result = tree.defeatist_search(single_query(vectors[0]), 10)
        assert result.cost.node_accesses > 0
        assert result.cost.distance_evaluations == result.n_candidates
        assert result.cost.candidates_pruned == 400 - result.n_candidates
        assert result.n_candidates < 400  # defeatist search must prune


class TestDegenerateLeaves:
    """Satellite soundness: duplicate rows, zero-variance dims, k > n.

    Both trees — the exact HybridTree and the approximate SpillTree —
    must stay sound on inputs whose split heuristics degenerate.
    """

    def test_duplicate_rows_spill_tree(self):
        vectors = np.ones((60, 3))
        tree = SpillTree(vectors, SpillTreeConfig(leaf_capacity=16))
        # Zero spread: the build must stop at one oversized leaf
        # instead of recursing forever.
        assert tree.leaf_sizes() == [60]
        result = tree.defeatist_search(single_query(np.ones(3)), 5)
        np.testing.assert_array_equal(result.indices, np.arange(5))  # id tie-break
        np.testing.assert_array_equal(result.distances, np.zeros(5))

    def test_duplicate_rows_hybrid_tree(self):
        vectors = np.ones((60, 3))
        tree = HybridTree(vectors, leaf_capacity=16)
        result = tree.knn(single_query(np.ones(3)), 5)
        assert result.indices.shape == (5,)
        np.testing.assert_array_equal(result.distances, np.zeros(5))

    def test_zero_variance_dimensions(self, rng):
        # Only coordinate 1 varies; every split heuristic must lock
        # onto it and both trees must agree with the linear scan.
        vectors = np.zeros((200, 4))
        vectors[:, 1] = rng.standard_normal(200)
        query = single_query(vectors[17])
        exact = LinearScan(vectors).knn(query, 10)
        hybrid = HybridTree(vectors, leaf_capacity=16).knn(query, 10)
        np.testing.assert_array_equal(
            np.sort(hybrid.indices), np.sort(exact.indices)
        )
        for rule in ("kd", "rp"):
            tree = SpillTree(
                vectors, SpillTreeConfig(rule=rule, leaf_capacity=16)
            )
            result = tree.defeatist_search(query, 10)
            overlap = set(map(int, result.indices)) & set(map(int, exact.indices))
            assert len(overlap) >= 8, rule

    def test_leaves_smaller_than_k(self, rng):
        """k above the database size: both trees return every row once,
        ranked, rather than raising or padding."""
        vectors = rng.standard_normal((7, 3))
        query = single_query(vectors[0])
        hybrid = HybridTree(vectors, leaf_capacity=4).knn(query, 20)
        assert hybrid.indices.shape == (7,)
        tree = SpillTree(vectors, SpillTreeConfig(leaf_capacity=4))
        result = tree.defeatist_search(query, 20)
        assert len(set(map(int, result.indices))) == result.indices.shape[0]
        assert result.indices.shape[0] <= 7
        assert np.all(np.diff(result.distances) >= 0)

    def test_median_ties_fall_back_to_even_split(self):
        # >half the rows share the median value on every coordinate:
        # the quantile split would put everything in one child, so the
        # build must fall back to the spill-free even split and still
        # terminate with bounded leaves.
        vectors = np.zeros((128, 2))
        vectors[:32, 0] = np.linspace(1.0, 2.0, 32)
        tree = SpillTree(vectors, SpillTreeConfig(leaf_capacity=16, spill=0.4))
        # The root split hit the tie guard: a spill-free cut whose
        # children share nothing (low == route == high).
        assert tree.low[0] == tree.route[0] == tree.high[0]
        assert not gathered(tree, tree.left[0]) & gathered(tree, tree.right[0])
        assert gathered(tree) == set(range(128))
        result = tree.defeatist_search(single_query(np.zeros(2)), 10)
        assert result.indices.shape == (10,)


class TestCalibration:
    def test_calibrated_recall_in_unit_interval(self, rng):
        tree = SpillTree(clustered(rng), SpillTreeConfig(leaf_capacity=32))
        assert isinstance(tree.calibrated_recall, float)
        assert 0.0 < tree.calibrated_recall <= 1.0

    def test_calibration_deterministic(self, rng):
        vectors = rng.standard_normal((300, 4))
        config = SpillTreeConfig(leaf_capacity=32, seed=9)
        assert (
            SpillTree(vectors, config).calibrated_recall
            == SpillTree(vectors, config).calibrated_recall
        )


class TestValidation:
    def test_rejects_bad_inputs(self, rng):
        with pytest.raises(ValueError):
            SpillTree(np.empty((0, 3)))
        with pytest.raises(ValueError):
            SpillTreeConfig(rule="ball")
        with pytest.raises(ValueError):
            SpillTreeConfig(spill=0.95)
        with pytest.raises(ValueError):
            SpillTreeConfig(max_leaves=0)
        with pytest.raises(ValueError):
            SpillTreeConfig(leaf_capacity=0)
        tree = SpillTree(rng.standard_normal((50, 3)), SpillTreeConfig(leaf_capacity=16))
        with pytest.raises(ValueError):
            tree.defeatist_search(single_query(np.zeros(4)), 5)
        with pytest.raises(ValueError):
            tree.defeatist_search(single_query(np.zeros(3)), 0)


class TestFaultInjection:
    def test_descend_site_aborts_the_search(self, rng):
        vectors = rng.standard_normal((300, 3))
        tree = SpillTree(vectors, SpillTreeConfig(leaf_capacity=16))
        plan = FaultPlan(
            specs=(FaultSpec(site="index.descend", kind="error", at=(1,)),)
        )
        with activate_faults(plan):
            with pytest.raises(InjectedFault):
                tree.defeatist_search(single_query(vectors[0]), 5)

    def test_calibration_is_not_a_fault_target(self, rng):
        """Build-time probes must not consume or trip fault plans —
        injection belongs to the serving path only."""
        vectors = rng.standard_normal((300, 3))
        plan = FaultPlan(
            specs=(
                FaultSpec(site="index.descend", kind="error", probability=1.0),
            )
        )
        with activate_faults(plan):
            tree = SpillTree(vectors, SpillTreeConfig(leaf_capacity=16))
        assert 0.0 < tree.calibrated_recall <= 1.0
