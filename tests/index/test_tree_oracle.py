"""The flat node table against the pointer trees it replaced.

:class:`~repro.index.tree.HybridTree` must return the reference tree's
pages, cost counters and node caches bit for bit — over diagonal,
inverse and mixed Qcluster-style queries and the baselines' power-mean
queries, at leaf capacities 1–64 with duplicate rows — and its pages
must equal the exact scan's under the shared ``(distance, id)`` order.
The row-budgeted approximate search must equal the exact top-k over
exactly the rows of the leaves it read — a prefix of the leaf bound
order that stops at the first leaf reaching the budget — and a budget
of every row must return the exact scan's page.  Every node's
vectorised bound must also stay a sound lower bound.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as hst

from repro.baselines.base import PowerMeanQuery
from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.core.kernels import _DIAGONAL_TILE_ELEMENTS
from repro.core.progressive import exact_top_k, prune_threshold
from repro.index.tree import HybridTree
from repro.parallel import scan_shard_topk

from .tree_reference import ReferenceHybridTree

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
        """A 4 KB-page tree over 32-d rows: deep enough that pruning
        and the node cache both engage."""
        rng = np.random.default_rng(7)
        vectors = make_database(rng, 6000, 32, 0.05, False)
        flat = HybridTree(vectors)
        reference = ReferenceHybridTree(vectors)
        assert flat.leaf_capacity == reference.leaf_capacity == 16
        for g in (1, 3, 6):
            queries = [make_query(rng, vectors, kind, g) for _ in range(3)]
            assert_same_session(flat, reference, queries, 20)


class TestSearchShape:
    """The exact search scores leaves in a few kernel calls, not one per
    opened leaf, and opens exactly the nodes bounded within the slacked
    k-th distance."""

    @pytest.mark.parametrize("kind", ["diagonal", "inverse"])
    def test_kernel_calls_and_node_accesses(self, kind, monkeypatch):
        rng = np.random.default_rng(25)
        n, p = 8000, 16
        vectors = make_database(rng, n, p, 0.05, False)
        tree = HybridTree(vectors)
        n_leaves = tree.leaves.shape[0]
        assert tree.leaf_capacity == 32 and n_leaves > 64
        tile_rows = _DIAGONAL_TILE_ELEMENTS // p
        chunk_calls = math.ceil(math.log2(n_leaves)) + math.ceil(n / tile_rows)
        leaf_of = np.empty(n, dtype=np.intp)
        leaf_of[tree.rows] = np.repeat(tree.leaves, tree.leaf_sizes())
        score = DisjunctiveQuery.distances
        calls = []

        def counted(query, rows):
            calls.append(rows.shape[0])
            return score(query, rows)

        for g in (1, 3, 6):
            query = make_query(rng, vectors, kind, g)
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(DisjunctiveQuery, "distances", counted)
                page = tree.knn(query, 20)
            cut = prune_threshold(page.distances[-1])
            near = np.flatnonzero(query.distances(vectors) <= cut)
            assert len(calls) <= chunk_calls + np.unique(leaf_of[near]).shape[0]
            assert page.cost.node_accesses == np.count_nonzero(tree.node_bounds(query) <= cut)


def make_dyadic_case(rng, n, p, duplicate_share, kind, g, on_rows):
    """Rows and a query whose distances are exact in float64.

    Integer rows, integer or half-integer centres, power-of-two weights
    and inverses ``L L'`` with a dyadic Cholesky factor ``L`` keep every
    product and sum exact, and ``g <= 2`` keeps the harmonic combination
    independent of summation order.  A distance then has the same bits
    whichever rows it is scored with: a tree leaf and a full scan agree
    exactly, and exact ties are real ties.
    """
    vectors = rng.integers(-4, 5, size=(n, p)).astype(float)
    copies = int(duplicate_share * n)
    if copies:
        vectors[rng.choice(n, copies)] = vectors[rng.choice(n, copies)]
    centers = vectors[rng.integers(n, size=g)]
    if not on_rows:
        centers = centers + rng.choice([-0.5, 0.5], size=centers.shape)
    points = []
    for center in centers:
        weight = float(2.0 ** rng.integers(0, 3))
        if kind == "diagonal":
            diagonal = 2.0 ** rng.integers(-1, 3, size=p)
            points.append(QueryPoint(center, np.diag(diagonal), weight, diagonal))
        else:
            factor = np.tril(rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=(p, p)), -1)
            factor += np.diag(2.0 ** rng.integers(0, 2, size=p))
            points.append(QueryPoint(center, factor @ factor.T, weight))
    return vectors, DisjunctiveQuery(points)


@hst.composite
def tie_cases(draw):
    return dict(
        seed=draw(hst.integers(0, 2**32 - 1)),
        n=draw(hst.integers(1, 600)),
        p=draw(hst.sampled_from(DIMENSIONS)),
        leaf_capacity=draw(hst.integers(1, 64)),
        duplicate_share=draw(hst.sampled_from([0.0, 0.2, 0.6])),
        kind=draw(hst.sampled_from(["diagonal", "inverse"])),
        g=draw(hst.integers(1, 2)),
        k=draw(hst.integers(1, 40)),
        on_rows=draw(hst.booleans()),
    )


class TestExactScanAgreement:
    @seed(21)
    @given(tie_cases())
    @settings(max_examples=100, deadline=None)
    def test_pages_equal_the_exact_scan_under_ties(self, case):
        """Quantised, duplicated rows tie exactly; the tree must select
        and order them by ``(distance, id)`` like every other exact
        path.  ``on_rows`` centres the query on database rows (a start
        query), so whole leaves tie at distance zero."""
        rng = np.random.default_rng(case["seed"])
        vectors, query = make_dyadic_case(
            rng,
            case["n"],
            case["p"],
            case["duplicate_share"],
            case["kind"],
            case["g"],
            case["on_rows"],
        )
        tree = HybridTree(vectors, leaf_capacity=case["leaf_capacity"])
        got = tree.knn(query, case["k"])
        distances = query.distances(vectors)
        top = exact_top_k(distances, case["k"])
        assert got.indices.tolist() == top.tolist()
        assert got.distances.tobytes() == distances[top].tobytes()


class TestApproximateSearch:
    @seed(23)
    @given(tie_cases(), hst.floats(0.0, 1.2))
    @settings(max_examples=100, deadline=None)
    def test_page_is_the_exact_top_k_of_the_leaves_read(self, case, share):
        """Quantised rows score exactly, so the page must be
        ``exact_top_k`` over the rows of the leaves read — the shortest
        prefix of the bound order (ties by leaf order) whose rows reach
        the budget — under the ``(distance, id)`` order."""
        rng = np.random.default_rng(case["seed"])
        vectors, query = make_dyadic_case(
            rng,
            case["n"],
            case["p"],
            case["duplicate_share"],
            case["kind"],
            case["g"],
            case["on_rows"],
        )
        tree = HybridTree(vectors, leaf_capacity=case["leaf_capacity"])
        tree.calibrate()
        budget = tree.row_budget = max(1, int(share * case["n"]))
        got = tree.approximate_knn(query, case["k"])

        leaves = tree.leaves
        boxes = tree.node_bounds(query)[leaves]
        order = sorted(range(leaves.shape[0]), key=lambda i: (boxes[i], i))
        read, rows = 0, []
        for position in order:
            leaf = leaves[position]
            rows.extend(tree.rows[tree.start[leaf] : tree.stop[leaf]].tolist())
            read += 1
            if len(rows) >= budget:
                break
        assert got.cost.node_accesses == read
        assert got.cost.distance_evaluations == len(rows)
        assert got.cost.candidates_pruned == case["n"] - len(rows)
        rows = np.array(rows)
        distances = query.distances(vectors)[rows]
        top = exact_top_k(distances, case["k"], tie_break=rows)
        assert got.indices.tolist() == rows[top].tolist()
        assert got.distances.tobytes() == distances[top].tobytes()

    @seed(24)
    @given(tie_cases())
    @settings(max_examples=50, deadline=None)
    def test_a_budget_of_every_row_is_the_exact_scan(self, case):
        rng = np.random.default_rng(case["seed"])
        vectors, query = make_dyadic_case(
            rng,
            case["n"],
            case["p"],
            case["duplicate_share"],
            case["kind"],
            case["g"],
            case["on_rows"],
        )
        tree = HybridTree(vectors, leaf_capacity=case["leaf_capacity"])
        tree.calibrate()
        tree.row_budget = case["n"]
        got = tree.approximate_knn(query, case["k"])
        ids, distances, _, _ = scan_shard_topk(query, vectors, 0, case["k"])
        assert got.indices.tobytes() == ids.astype(got.indices.dtype).tobytes()
        assert got.distances.tobytes() == distances.tobytes()
        assert got.cost.candidates_pruned == 0


class TestBoundSoundness:
    @pytest.mark.parametrize("kind", ["diagonal", "inverse", "mixed", "power"])
    @pytest.mark.parametrize("p", [3, 20])
    def test_node_bound_never_exceeds_its_rows(self, kind, p):
        """Every node's vectorised aggregate bound is at most the
        smallest aggregate distance over the node's own rows, through
        the per-axis (diagonal) and λ_min (full inverse) bounds."""
        rng = np.random.default_rng(p)
        vectors = make_database(rng, 800, p, 0.05, False)
        tree = HybridTree(vectors, leaf_capacity=8)
        for g in (1, 2, 4):
            query = make_query(rng, vectors, kind, g)
            bounds = tree.node_bounds(query)
            distances = query.distances(vectors)
            for node in range(tree.n_nodes):
                rows = tree.rows[tree.start[node] : tree.stop[node]]
                nearest = distances[rows].min()
                assert bounds[node] <= nearest * (1.0 + 1e-9) + 1e-12
