"""The flat node table against the pointer trees it replaced.

:class:`~repro.index.tree.HybridTree` must return the reference tree's
pages, cost counters and node caches bit for bit — over diagonal,
inverse (progressive-plan) and mixed Qcluster-style queries and the
baselines' power-mean queries, at leaf capacities 1–64 with duplicate
rows.  :class:`~repro.index.tree.SpillTree` must reproduce the
reference leaf membership, split records, defeatist results and
calibrated recall under both split rules.  Every node's vectorised
bound must also stay a sound lower bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as hst

from repro.baselines.base import PowerMeanQuery
from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.index.tree import HybridTree, SpillTree, SpillTreeConfig

from .tree_reference import ReferenceHybridTree, ReferenceSpillTree

#: Dimensions at and above 16 make inverse queries eligible for the
#: progressive plan (interval-arithmetic node bounds, leaf filter).
DIMENSIONS = (2, 3, 8, 16, 20)


def make_database(rng, n, p, duplicate_share, quantize):
    vectors = rng.standard_normal((n, p)) / np.sqrt(np.arange(1, p + 1))
    copies = int(duplicate_share * n)
    if copies:
        vectors[rng.choice(n, copies)] = vectors[rng.choice(n, copies)]
    if quantize:
        # Coarse values: exact distance ties and zero-spread splits.
        vectors = np.round(vectors, 1)
    return vectors


def make_query(rng, vectors, kind, g):
    """A g-point query near database rows (inside the data, where the
    tree has something to prune)."""
    p = vectors.shape[1]
    centers = vectors[rng.integers(vectors.shape[0], size=g)]
    centers = centers + 0.05 * rng.standard_normal(centers.shape)
    inverses = []
    for j in range(g):
        scheme = kind if kind in ("diagonal", "inverse") else ("inverse", "diagonal")[j % 2]
        if scheme == "diagonal":
            inverses.append(np.diag(rng.uniform(0.2, 5.0, p)))
        else:
            raw = rng.standard_normal((p + 3, p))
            inverses.append(raw.T @ raw / (p + 3) + 0.3 * np.eye(p))
    weights = rng.uniform(1.0, 4.0, g)
    if kind == "power":
        return PowerMeanQuery(
            centers=centers,
            inverses=tuple(inverses),
            weights=weights,
            alpha=float(rng.choice([1.0, -2.0])),
        )
    return DisjunctiveQuery(
        [
            QueryPoint(
                center=center,
                inverse=inverse,
                weight=float(weight),
                diagonal=np.diag(inverse).copy()
                if np.count_nonzero(inverse - np.diag(np.diag(inverse))) == 0
                else None,
            )
            for center, inverse, weight in zip(centers, inverses, weights)
        ]
    )


@hst.composite
def exact_cases(draw):
    return dict(
        seed=draw(hst.integers(0, 2**32 - 1)),
        n=draw(hst.integers(1, 300)),
        p=draw(hst.sampled_from(DIMENSIONS)),
        leaf_capacity=draw(hst.integers(1, 64)),
        duplicate_share=draw(hst.sampled_from([0.0, 0.2, 0.6])),
        quantize=draw(hst.booleans()),
        kind=draw(hst.sampled_from(["diagonal", "inverse", "mixed", "power"])),
        g=draw(hst.integers(1, 5)),
        k=draw(hst.integers(1, 30)),
    )


@hst.composite
def spill_cases(draw):
    # Each child keeps a (1 + spill) / 2 share of its parent, so the
    # node count grows like (n / leaf_capacity) ** 2.4 at spill 0.5:
    # wide spills get wide leaves to keep the trees small.
    spill = draw(hst.sampled_from([0.0, 0.1, 0.3, 0.5]))
    return dict(
        seed=draw(hst.integers(0, 2**32 - 1)),
        n=draw(hst.integers(1, 200)),
        p=draw(hst.sampled_from(DIMENSIONS)),
        duplicate_share=draw(hst.sampled_from([0.0, 0.2, 0.6])),
        quantize=draw(hst.booleans()),
        config=SpillTreeConfig(
            rule=draw(hst.sampled_from(["kd", "rp"])),
            spill=spill,
            leaf_capacity=draw(hst.integers(32 if spill > 0.3 else 1, 64)),
            max_leaves=draw(hst.integers(1, 12)),
            seed=draw(hst.integers(0, 1000)),
        ),
    )


def assert_same_exact_tree(flat, reference):
    assert flat.n_nodes == reference.n_nodes
    for node_id, node in enumerate(reference.nodes()):
        np.testing.assert_array_equal(flat.low[node_id], node.low)
        np.testing.assert_array_equal(flat.high[node_id], node.high)
        if node.is_leaf:
            assert flat.left[node_id] == -1
            np.testing.assert_array_equal(
                flat.rows[flat.start[node_id] : flat.stop[node_id]], node.indices
            )
        else:
            assert flat.left[node_id] == node.left.node_id
            assert flat.right[node_id] == node.right.node_id


def assert_same_session(flat, reference, queries, k):
    """A feedback session: successive queries share one node cache."""
    flat_cache, reference_cache = set(), set()
    for query in queries:
        got = flat.knn(query, k, node_cache=flat_cache)
        want = reference.knn(query, k, node_cache=reference_cache)
        np.testing.assert_array_equal(got.indices, want.indices)
        np.testing.assert_array_equal(got.distances, want.distances)
        assert got.cost == want.cost
        assert flat_cache == reference_cache


class TestHybridTreeOracle:
    @seed(18)
    @given(exact_cases())
    @settings(max_examples=80, deadline=None)
    def test_pages_costs_and_caches_match_the_pointer_tree(self, case):
        rng = np.random.default_rng(case["seed"])
        vectors = make_database(
            rng, case["n"], case["p"], case["duplicate_share"], case["quantize"]
        )
        flat = HybridTree(vectors, leaf_capacity=case["leaf_capacity"])
        reference = ReferenceHybridTree(vectors, leaf_capacity=case["leaf_capacity"])
        assert_same_exact_tree(flat, reference)
        queries = [make_query(rng, vectors, case["kind"], case["g"]) for _ in range(3)]
        assert_same_session(flat, reference, queries, case["k"])

    @pytest.mark.parametrize("kind", ["diagonal", "inverse", "mixed"])
    def test_paper_sized_sessions_match(self, kind):
        """A 4 KB-page tree over 32-d rows: deep enough that the
        progressive plan, the leaf filter and the cache all engage."""
        rng = np.random.default_rng(7)
        vectors = make_database(rng, 6000, 32, 0.05, False)
        flat = HybridTree(vectors)
        reference = ReferenceHybridTree(vectors)
        assert flat.leaf_capacity == reference.leaf_capacity == 16
        for g in (1, 3, 6):
            queries = [make_query(rng, vectors, kind, g) for _ in range(3)]
            assert_same_session(flat, reference, queries, 20)


class TestSpillTreeOracle:
    @seed(18)
    @given(spill_cases())
    @settings(max_examples=80, deadline=None)
    def test_leaves_descents_and_calibration_match(self, case):
        rng = np.random.default_rng(case["seed"])
        vectors = make_database(
            rng, case["n"], case["p"], case["duplicate_share"], case["quantize"]
        )
        flat = SpillTree(vectors, case["config"])
        reference = ReferenceSpillTree(vectors, case["config"])
        assert flat.n_nodes == reference.n_nodes
        for node_id, node in enumerate(reference.nodes()):
            if node.is_leaf:
                assert flat.left[node_id] == -1
                np.testing.assert_array_equal(
                    flat.rows[flat.start[node_id] : flat.stop[node_id]], node.indices
                )
                continue
            assert flat.left[node_id] == node.left.node_id
            assert flat.right[node_id] == node.right.node_id
            if node.axis is None:
                assert flat.axis[node_id] == -1
                np.testing.assert_array_equal(flat.direction[node_id], node.direction)
            else:
                assert flat.axis[node_id] == node.axis
            assert (flat.route[node_id], flat.low[node_id], flat.high[node_id]) == (
                node.route,
                node.low,
                node.high,
            )
        assert flat.calibrated_recall == reference.calibrated_recall
        for _ in range(3):
            query = make_query(rng, vectors, "mixed", int(rng.integers(1, 4)))
            got = flat.defeatist_search(query, 10)
            indices, distances, visited = reference.defeatist_search(query, 10)
            np.testing.assert_array_equal(got.indices, indices)
            np.testing.assert_array_equal(got.distances, distances)
            assert got.cost.node_accesses == visited


class TestBoundSoundness:
    @pytest.mark.parametrize("kind", ["diagonal", "inverse", "mixed", "power"])
    @pytest.mark.parametrize("p", [3, 20])
    def test_node_bound_never_exceeds_its_rows(self, kind, p):
        """Every node's vectorised aggregate bound is at most the
        smallest aggregate distance over the node's own rows — through
        the classic per-axis/λ_min bounds (p = 3) and the batched
        progressive-plan box bounds (inverse and mixed at p = 20)."""
        rng = np.random.default_rng(p)
        vectors = make_database(rng, 800, p, 0.05, False)
        tree = HybridTree(vectors, leaf_capacity=8)
        for g in (1, 2, 4):
            query = make_query(rng, vectors, kind, g)
            plan = tree._progressive_plan(query)
            if p >= 16 and kind in ("inverse", "mixed"):
                assert plan is not None
            bounds = tree.node_bounds(query, plan)
            distances = query.distances(vectors)
            for node in range(tree.n_nodes):
                rows = tree.rows[tree.start[node] : tree.stop[node]]
                nearest = distances[rows].min()
                assert bounds[node] <= nearest * (1.0 + 1e-9) + 1e-12
