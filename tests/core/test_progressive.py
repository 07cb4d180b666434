"""Progressive filter-and-refine scan: byte-identical to the full scan.

The progressive layer (`repro.core.progressive`) may only ever change
*cost*: for every eligible query the filtered/refined top-k — through
`progressive_topk`, `LinearScan` and the service's sharded scan — must
be byte-identical to the reference full scan under the shared
``(distance, index)`` order, and the tree paths (`HybridTree`, the
multipoint searchers), which bound nodes with their own box bounds,
must not move with the layer's switch.  These tests pin that contract
across covariance schemes, mixed queries, PCA-reduced bases and
deliberate distance ties, and check the lower bounds themselves are
sound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.covariance import get_scheme
from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.core.kernels import compile_query, use_kernels
from repro.core.progressive import (
    default_schedule,
    exact_top_k,
    plan_for,
    progressive_enabled,
    progressive_topk,
    prune_threshold,
    use_progressive,
)
from repro.index.tree import HybridTree
from repro.index.linear import LinearScan, SearchCost

P = 32
N = 4_096
K = 20


@pytest.fixture(scope="module")
def database() -> np.ndarray:
    """Anisotropic rotated database — realistic decaying spectrum."""
    rng = np.random.default_rng(101)
    scales = 1.0 / np.sqrt(np.arange(1, P + 1))
    rotation, _ = np.linalg.qr(rng.standard_normal((P, P)))
    return np.ascontiguousarray(
        (rng.standard_normal((N, P)) * scales) @ rotation.T
    )


def feedback_query(
    database: np.ndarray,
    rng: np.random.Generator,
    scheme_names,
) -> DisjunctiveQuery:
    """Clusters built from actual database neighbourhoods, like a real
    relevance-feedback round (centers inside the data — the regime
    where filtering has something to prune)."""
    points = []
    for scheme_name in scheme_names:
        scheme = get_scheme(scheme_name)
        anchor = database[rng.integers(0, database.shape[0])]
        gaps = database - anchor
        nearest = np.argpartition(np.einsum("ij,ij->i", gaps, gaps), 64)[:64]
        cloud = database[nearest]
        info = scheme.invert(np.cov(cloud, rowvar=False))
        points.append(
            QueryPoint(
                center=cloud.mean(axis=0),
                inverse=info.inverse,
                weight=float(rng.uniform(0.5, 3.0)),
                diagonal=info.diagonal,
            )
        )
    return DisjunctiveQuery(points)


def reference_topk(database, query, k):
    """The naive-order reference: full distances + deterministic order."""
    with use_progressive(False):
        distances = query.distances(database)
    top = exact_top_k(distances, k)
    return top, distances[top]


class TestExactTopK:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(3)
        distances = rng.random(500)
        top = exact_top_k(distances, 25)
        np.testing.assert_array_equal(top, np.argsort(distances)[:25])

    def test_ties_resolved_by_position(self):
        distances = np.array([5.0, 1.0, 1.0, 1.0, 9.0])
        np.testing.assert_array_equal(exact_top_k(distances, 2), [1, 2])

    def test_ties_resolved_by_tie_break_keys(self):
        distances = np.array([5.0, 1.0, 1.0, 1.0, 9.0])
        keys = np.array([50, 40, 30, 20, 10])
        np.testing.assert_array_equal(
            exact_top_k(distances, 2, tie_break=keys), [3, 2]
        )

    def test_k_at_least_n_returns_full_order(self):
        distances = np.array([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(exact_top_k(distances, 10), [1, 2, 0])

    def test_result_is_sorted_by_distance_then_index(self):
        rng = np.random.default_rng(7)
        distances = rng.integers(0, 5, size=200).astype(float)  # many ties
        top = exact_top_k(distances, 50)
        pairs = list(zip(distances[top], top))
        assert pairs == sorted(pairs)


class TestByteIdenticalTopK:
    @pytest.mark.parametrize(
        "schemes",
        [
            ["inverse"] * 4,
            ["inverse", "diagonal", "inverse", "diagonal"],
            ["inverse"],  # single point: no harmonic combination
        ],
        ids=["inverse", "mixed", "single"],
    )
    def test_progressive_matches_reference(self, database, schemes):
        rng = np.random.default_rng(11)
        for _ in range(3):
            query = feedback_query(database, rng, schemes)
            with use_progressive(True, min_rows=256):
                result = progressive_topk(database, query, K)
            assert result is not None  # the fast path actually ran
            ref_ids, ref_distances = reference_topk(database, query, K)
            np.testing.assert_array_equal(result.indices, ref_ids)
            np.testing.assert_array_equal(result.distances, ref_distances)
            assert result.stats.refined + result.stats.pruned == N

    def test_progressive_actually_prunes_on_anisotropic_data(self, database):
        rng = np.random.default_rng(13)
        query = feedback_query(database, rng, ["inverse"] * 4)
        with use_progressive(True, min_rows=256):
            result = progressive_topk(database, query, K)
        assert result is not None
        assert result.stats.pruned > N // 2
        assert result.stats.refine_fraction < 0.5

    def test_byte_identical_under_distance_ties(self, database):
        """Duplicated rows produce exact ties at the k boundary; both
        paths must resolve them by the same (distance, index) rule."""
        rng = np.random.default_rng(17)
        tied = np.vstack([database, database[:200]])  # 200 exact duplicates
        query = feedback_query(database, rng, ["inverse"] * 3)
        with use_progressive(True, min_rows=256):
            result = progressive_topk(tied, query, 64)
        assert result is not None
        ref_ids, ref_distances = reference_topk(tied, query, 64)
        np.testing.assert_array_equal(result.indices, ref_ids)
        np.testing.assert_array_equal(result.distances, ref_distances)

    @pytest.mark.parametrize("k", [20, 64])
    def test_duplicate_heavy_rows_match_the_full_scan_bits(self, database, k):
        """Quantised rows, most of them copies: every refine chunk must
        score a row with the full scan's bits, so the page is exactly
        ``exact_top_k(query.distances(X), k)``, ties and all."""
        rng = np.random.default_rng(29)
        rows = np.round(database, 1)
        rows[rng.choice(N, 3 * N // 4)] = rows[rng.choice(N, 3 * N // 4)]
        for schemes in (["inverse"] * 3, ["inverse"] * 6):
            query = feedback_query(rows, rng, schemes)
            with use_progressive(True, min_rows=256):
                result = progressive_topk(rows, query, k)
            assert result is not None
            distances = query.distances(rows)
            top = exact_top_k(distances, k)
            assert result.indices.tolist() == top.tolist()
            assert result.distances.tobytes() == distances[top].tobytes()

    def test_pca_reduced_basis(self, database):
        """Theorem 1: the whole contract survives a PCA projection."""
        from repro.core.pca import PCA

        reduced = PCA(n_components=20).fit(database).transform(database)
        reduced = np.ascontiguousarray(reduced)
        rng = np.random.default_rng(19)
        query = feedback_query(reduced, rng, ["inverse"] * 3)
        with use_progressive(True, min_rows=256):
            result = progressive_topk(reduced, query, K)
        assert result is not None
        ref_ids, ref_distances = reference_topk(reduced, query, K)
        np.testing.assert_array_equal(result.indices, ref_ids)
        np.testing.assert_array_equal(result.distances, ref_distances)

    def test_progressive_scan_falls_back_for_pure_diagonal(self, database):
        """A pure-diagonal scan is already memory-bound O(N·p): the
        filter is documented ineligible, and the fallback must still
        return the reference ordering."""
        rng = np.random.default_rng(23)
        query = feedback_query(database, rng, ["diagonal"] * 4)
        with use_progressive(True, min_rows=256):
            assert progressive_topk(database, query, K) is None
            result = LinearScan(database).knn(query, K)
        ref_ids, ref_distances = reference_topk(database, query, K)
        np.testing.assert_array_equal(result.indices, ref_ids)
        np.testing.assert_array_equal(result.distances, ref_distances)
        assert result.cost.refine_fraction == 1.0


class TestConsumerPaths:
    def test_linear_scan_byte_identical_and_cheaper(self, database):
        rng = np.random.default_rng(29)
        query = feedback_query(database, rng, ["inverse"] * 4)
        scan = LinearScan(database)
        with use_progressive(True, min_rows=256):
            fast = scan.knn(query, K)
        with use_progressive(False):
            slow = scan.knn(query, K)
        np.testing.assert_array_equal(fast.indices, slow.indices)
        np.testing.assert_array_equal(fast.distances, slow.distances)
        assert slow.cost.distance_evaluations == N
        assert fast.cost.distance_evaluations < N
        assert fast.cost.candidates_pruned > 0
        assert (
            fast.cost.distance_evaluations + fast.cost.candidates_pruned == N
        )
        assert fast.cost.refine_fraction < 1.0
        assert slow.cost.refine_fraction == 1.0

    def test_hybridtree_knn_identical_ordering(self, database):
        # The tree bounds nodes with its own box bounds and scores whole
        # leaves, so the switch leaves its pages and costs untouched.
        # Leaves are scored as small row subsets, whose BLAS blocking
        # can move a distance by an ulp against the full scan: the
        # ordering matches the scan's, distances to within 1e-12.
        rng = np.random.default_rng(31)
        tree = HybridTree(database)
        for schemes in (["inverse"] * 3, ["inverse", "diagonal"]):
            query = feedback_query(database, rng, schemes)
            with use_progressive(True, min_rows=256):
                fast = tree.knn(query, K)
            with use_progressive(False):
                slow = tree.knn(query, K)
            np.testing.assert_array_equal(fast.indices, slow.indices)
            np.testing.assert_array_equal(fast.distances, slow.distances)
            assert fast.cost == slow.cost
            assert fast.cost.candidates_pruned == 0
            ref_ids, ref_distances = reference_topk(database, query, K)
            np.testing.assert_array_equal(fast.indices, ref_ids)
            np.testing.assert_allclose(fast.distances, ref_distances, rtol=1e-12)

    def test_multipoint_searchers_byte_identical(self, database):
        from repro.index.multipoint import CentroidSearcher, MultipointSearcher

        rng = np.random.default_rng(41)
        tree = HybridTree(database)
        query = feedback_query(database, rng, ["inverse"] * 3)
        with use_progressive(True, min_rows=256):
            fast_multi = MultipointSearcher(tree).search(query, K)
            fast_centroid = CentroidSearcher(tree).search(query, K)
        with use_progressive(False):
            slow_multi = MultipointSearcher(tree).search(query, K)
            slow_centroid = CentroidSearcher(tree).search(query, K)
        np.testing.assert_array_equal(fast_multi.indices, slow_multi.indices)
        np.testing.assert_array_equal(
            fast_centroid.indices, slow_centroid.indices
        )

    def test_sharded_service_scan_byte_identical(self, database):
        from repro.service import RetrievalService

        rng = np.random.default_rng(43)
        query = feedback_query(database, rng, ["inverse"] * 3)
        service = RetrievalService(
            database, use_index=False, n_shards=4, cache_size=0, k=K
        )
        try:
            with use_progressive(True, min_rows=256):
                fast_ids, fast_distances, _ = service.scan_batch([query], [K])[0]
            with use_progressive(False):
                slow_ids, slow_distances, _ = service.scan_batch([query], [K])[0]
        finally:
            service.shutdown()
        np.testing.assert_array_equal(fast_ids, slow_ids)
        np.testing.assert_array_equal(fast_distances, slow_distances)

    def test_sharded_scan_reports_pruning_metrics(self, database):
        from repro.service import RetrievalService

        rng = np.random.default_rng(47)
        query = feedback_query(database, rng, ["inverse"] * 3)
        service = RetrievalService(
            database, use_index=False, n_shards=2, cache_size=0, k=K
        )
        try:
            with use_progressive(True, min_rows=256):
                service.scan_batch([query], [K])
            snapshot = service.metrics.snapshot()
        finally:
            service.shutdown()
        counters = snapshot["counters"]
        assert counters["candidates_refined"] > 0
        assert counters["candidates_pruned"] > 0
        assert (
            counters["candidates_pruned"] + counters["candidates_refined"] == N
        )
        assert 0.0 < snapshot["refine_fraction"] < 1.0


class TestBoundSoundness:
    def test_prefix_bounds_never_exceed_exact_distances(self, database):
        """Every schedule level's combined prefix bound must lower-bound
        the exact aggregate distance (within the pruning slack) — for
        whitened *and* diagonal clusters alike."""
        rng = np.random.default_rng(53)
        query = feedback_query(
            database, rng, ["inverse", "diagonal", "inverse"]
        )
        compiled = compile_query(query)
        plan = plan_for(compiled)
        assert plan is not None
        rows = database[:512]
        exact = query.distances(rows)
        context = plan.scan_context(database)
        accumulated = None
        previous = 0
        for level in plan.schedule:
            increment = context.prefix_distances(rows, previous, level)
            accumulated = (
                increment if accumulated is None else accumulated + increment
            )
            bound = query.combine_per_cluster(accumulated)
            assert np.all(bound <= prune_threshold(1.0) * np.maximum(exact, 1e-9))
            previous = level
        # At the full dimension the whitened bound matches the distance.
        np.testing.assert_allclose(bound, exact, rtol=1e-6)

    def test_box_bounds_never_exceed_contained_point_distances(self, database):
        """The tree's node boxes (per-axis bound for diagonal clusters,
        λ_min bound for whitened ones) lower-bound every row inside."""
        rng = np.random.default_rng(59)
        query = feedback_query(database, rng, ["inverse", "diagonal"])
        rows = database[:256]
        tree = HybridTree(rows, leaf_capacity=8)
        # One batched call over every node's box: (n_nodes,) bounds.
        bounds = tree.node_bounds(query)
        assert bounds.shape == (tree.n_nodes,)
        exact = query.distances(rows)
        for node in range(tree.n_nodes):
            low, high = tree.low[node], tree.high[node]
            inside = (rows >= low).all(axis=1) & (rows <= high).all(axis=1)
            assert inside.any()  # the node's own rows at least
            nearest = exact[inside].min()
            assert bounds[node] <= prune_threshold(1.0) * max(nearest, 1e-9)


class TestEligibilityAndHatch:
    def test_disabled_layer_returns_none(self, database):
        rng = np.random.default_rng(61)
        query = feedback_query(database, rng, ["inverse"] * 2)
        assert progressive_enabled()
        with use_progressive(False):
            assert not progressive_enabled()
            assert progressive_topk(database, query, K) is None

    def test_disabled_kernels_return_none(self, database):
        rng = np.random.default_rng(67)
        query = feedback_query(database, rng, ["inverse"] * 2)
        with use_progressive(True, min_rows=256), use_kernels(False):
            assert progressive_topk(database, query, K) is None

    def test_small_scans_and_large_k_fall_back(self, database):
        rng = np.random.default_rng(71)
        query = feedback_query(database, rng, ["inverse"] * 2)
        assert progressive_topk(database[:512], query, K) is None  # < min rows
        with use_progressive(True, min_rows=256):
            assert progressive_topk(database, query, N // 2) is None  # k ~ N

    def test_low_dimension_is_ineligible(self):
        rng = np.random.default_rng(73)
        database = rng.standard_normal((4096, 8))
        query = feedback_query(database, rng, ["inverse"] * 2)
        with use_progressive(True, min_rows=256):
            assert progressive_topk(database, query, K) is None

    def test_indefinite_inverse_is_ineligible(self, database):
        indefinite = -np.eye(P)
        query = DisjunctiveQuery(
            [QueryPoint(center=np.zeros(P), inverse=indefinite, weight=1.0)]
        )
        assert plan_for(compile_query(query)) is None

    def test_queries_without_cluster_structure_fall_back(self, database):
        class Opaque:
            def distances(self, rows):
                return np.einsum("ij,ij->i", rows, rows)

        with use_progressive(True, min_rows=256):
            assert progressive_topk(database, Opaque(), K) is None

    def test_use_progressive_restores_min_rows(self):
        from repro.core.progressive import progressive_min_rows

        before = progressive_min_rows()
        with use_progressive(True, min_rows=7):
            assert progressive_min_rows() == 7
        assert progressive_min_rows() == before


class TestStatsAndSchedule:
    def test_default_schedule_shape(self):
        assert default_schedule(128) == (16, 32, 128)
        assert default_schedule(32) == (4, 8, 32)
        assert default_schedule(2) == (1, 2)
        assert default_schedule(1) == (1,)

    def test_search_cost_refine_fraction(self):
        cost = SearchCost(1, 1, 0, distance_evaluations=25, candidates_pruned=75)
        assert cost.refine_fraction == pytest.approx(0.25)
        assert SearchCost(1, 1, 0, 0).refine_fraction == 1.0

    def test_scan_stats_consistency(self, database):
        rng = np.random.default_rng(79)
        query = feedback_query(database, rng, ["inverse"] * 4)
        with use_progressive(True, min_rows=256):
            result = progressive_topk(database, query, K)
        stats = result.stats
        assert stats.filtered == N
        assert stats.schedule == default_schedule(P)
        assert len(stats.survivors_per_level) >= 1
        assert stats.refined >= K  # the seed is always refined
        assert 0.0 < stats.refine_fraction <= 1.0
