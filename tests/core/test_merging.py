"""Cluster merging (Algorithm 3): the Hotelling merge loop."""

from __future__ import annotations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as hst

from repro.core.cluster import Cluster
from repro.core.covariance import DiagonalScheme, InverseScheme
from repro.core.merging import ClusterMerger, pairwise_merge_test

from .merge_reference import reference_merge, traced_merge


class TestPairwiseMergeTest:
    def test_same_population_merges(self, rng):
        a = Cluster(rng.standard_normal((30, 3)))
        b = Cluster(rng.standard_normal((30, 3)))
        result = pairwise_merge_test(a, b, significance_level=0.05)
        assert result.should_merge

    def test_distant_populations_stay_separate(self, rng):
        a = Cluster(rng.standard_normal((30, 3)))
        b = Cluster(rng.standard_normal((30, 3)) + 10.0)
        result = pairwise_merge_test(a, b, significance_level=0.05)
        assert not result.should_merge
        assert result.statistic > result.critical

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            pairwise_merge_test(
                Cluster(rng.standard_normal((5, 2))), Cluster(rng.standard_normal((5, 3)))
            )

    def test_invariance_under_linear_transform(self, rng):
        """Theorem 1 applied to the merge statistic (inverse scheme)."""
        a_points = rng.standard_normal((20, 3))
        b_points = rng.standard_normal((20, 3)) + 1.0
        transform = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
        scheme = InverseScheme(regularization=1e-12)
        original = pairwise_merge_test(Cluster(a_points), Cluster(b_points), scheme)
        mapped = pairwise_merge_test(
            Cluster(a_points @ transform.T), Cluster(b_points @ transform.T), scheme
        )
        assert mapped.statistic == pytest.approx(original.statistic, rel=1e-6)
        assert mapped.critical == pytest.approx(original.critical)


class TestClusterMerger:
    def test_merges_coincident_clusters(self, rng):
        shared = rng.standard_normal((60, 3))
        clusters = [Cluster(shared[:30]), Cluster(shared[30:])]
        merged, records = ClusterMerger().merge(clusters)
        assert len(merged) == 1
        assert len(records) == 1
        assert not records[0].forced

    def test_keeps_distant_clusters(self, rng):
        clusters = [
            Cluster(rng.standard_normal((30, 3))),
            Cluster(rng.standard_normal((30, 3)) + 12.0),
        ]
        merged, records = ClusterMerger(max_clusters=5).merge(clusters)
        assert len(merged) == 2
        assert records == []

    def test_enforces_max_clusters_by_forcing(self, rng):
        # Five well-separated blobs, budget of 2: forced merges must occur.
        clusters = [
            Cluster(rng.standard_normal((20, 2)) + offset)
            for offset in (0.0, 20.0, 40.0, 60.0, 80.0)
        ]
        merged, records = ClusterMerger(max_clusters=2).merge(clusters)
        assert len(merged) == 2
        assert any(record.forced for record in records)

    def test_input_not_mutated(self, rng):
        shared = rng.standard_normal((40, 2))
        clusters = [Cluster(shared[:20]), Cluster(shared[20:])]
        ClusterMerger().merge(clusters)
        assert len(clusters) == 2

    def test_single_cluster_is_noop(self, rng):
        clusters = [Cluster(rng.standard_normal((10, 2)))]
        merged, records = ClusterMerger().merge(clusters)
        assert merged == clusters
        assert records == []

    def test_merged_weight_accumulates(self, rng):
        shared = rng.standard_normal((40, 2))
        clusters = [
            Cluster(shared[:20], scores=np.full(20, 2.0)),
            Cluster(shared[20:], scores=np.full(20, 3.0)),
        ]
        merged, _ = ClusterMerger().merge(clusters)
        assert merged[0].weight == pytest.approx(100.0)

    def test_three_blobs_two_coincident(self, rng):
        shared = rng.standard_normal((40, 3))
        clusters = [
            Cluster(shared[:20]),
            Cluster(shared[20:]),
            Cluster(rng.standard_normal((20, 3)) + 15.0),
        ]
        merged, _ = ClusterMerger(max_clusters=5).merge(clusters)
        assert len(merged) == 2

    def test_tiny_clusters_merge_despite_no_test_power(self, rng):
        # Single-point clusters have no F-test power (df2 = -1 < p), so
        # the pair takes the low-mass branch: its separation under the
        # ridge-floored global pooled covariance (~5e5) exceeds even the
        # relaxed effective radius (~55 at the alpha floor), and the
        # merge happens only because the budget of one forces it.
        clusters = [
            Cluster(np.array([[0.0, 0.0]])),
            Cluster(np.array([[0.5, 0.5]])),
        ]
        merged, records = ClusterMerger(max_clusters=1).merge(clusters)
        assert len(merged) == 1
        assert records[0].forced
        assert records[0].statistic > records[0].critical

    def test_distant_single_points_within_budget_stay_apart(self):
        clusters = [
            Cluster(np.array([[0.0, 0.0]])),
            Cluster(np.array([[10.0, 10.0]])),
        ]
        merged, records = ClusterMerger(max_clusters=2).merge(clusters)
        assert len(merged) == 2
        assert records == []

    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterMerger(max_clusters=0)
        with pytest.raises(ValueError):
            ClusterMerger(relax_factor=1.0)
        with pytest.raises(ValueError):
            ClusterMerger(min_alpha=0.5, significance_level=0.05)

    def test_merge_records_carry_significance(self, rng):
        shared = rng.standard_normal((40, 2))
        clusters = [Cluster(shared[:20]), Cluster(shared[20:])]
        _, records = ClusterMerger(significance_level=0.03).merge(clusters)
        assert records[0].significance_level == pytest.approx(0.03)


@hst.composite
def merge_cases(draw):
    """Cluster lists with masses on both sides of the F branch (2p + 1)."""
    dimension = draw(hst.sampled_from([2, 3, 8, 32]))
    n_clusters = draw(hst.integers(min_value=2, max_value=9))
    sizes = draw(
        hst.lists(
            hst.integers(min_value=1, max_value=2 * dimension + 3),
            min_size=n_clusters,
            max_size=n_clusters,
        )
    )
    spread = draw(hst.sampled_from([0.0, 0.3, 2.0, 20.0]))
    graded = draw(hst.booleans())
    seed = draw(hst.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    clusters = []
    for size in sizes:
        center = spread * rng.standard_normal(dimension)
        points = center + rng.standard_normal((size, dimension))
        scores = rng.uniform(0.2, 1.0, size) if graded else None
        clusters.append(Cluster(points, scores))
    # Exact copies of the first cluster tie their pairs' ratios, which
    # pins the tie-break to the first pair in (i, j) order.
    for _ in range(draw(hst.integers(min_value=0, max_value=2))):
        clusters.append(Cluster(clusters[0].points, clusters[0].scores))
    scheme = draw(hst.sampled_from([DiagonalScheme(), InverseScheme()]))
    significance = draw(hst.sampled_from([0.05, 1e-3]))
    merger = ClusterMerger(
        scheme=scheme,
        significance_level=significance,
        max_clusters=draw(hst.integers(min_value=1, max_value=5)),
        min_alpha=draw(hst.sampled_from([significance, 1e-4, 1e-6])),
        relax_factor=draw(hst.sampled_from([0.5, 0.1])),
    )
    return merger, clusters


class TestMergeOracle:
    """The merger reproduces the reference loop bit for bit."""

    @given(merge_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_loop(self, case):
        merger, clusters = case
        expected = traced_merge(reference_merge, merger, clusters)
        actual = traced_merge(ClusterMerger.merge, merger, clusters)
        assert actual == expected

    def test_f_branch_decides_with_enough_mass(self, rng):
        # 40 + 40 points at p = 8: df2 = 71 >= p, so Equation 16 decides.
        shared = rng.standard_normal((80, 8))
        clusters = [Cluster(shared[:40]), Cluster(shared[40:]), Cluster(shared[:3] + 9.0)]
        merger = ClusterMerger(scheme=InverseScheme(), max_clusters=1)
        expected = traced_merge(reference_merge, merger, clusters)
        assert traced_merge(ClusterMerger.merge, merger, clusters) == expected
        first = expected[0][0]
        assert (first.first, first.second) == (0, 1)
        assert not first.forced


class CountingScheme(InverseScheme):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def invert(self, covariance):
        self.calls += 1
        return super().invert(covariance)


class TestMergeCost:
    def test_low_mass_step_inverts_once(self, rng):
        # Eight two-point clusters at p = 32: no pair has F-test power, so
        # each merge step needs only the global pooled inverse.  The
        # reference loop inverts every pair's pooled covariance (28) plus
        # the global one on every pass, alpha relaxations included.
        clusters = [
            Cluster(3.0 * rng.standard_normal(32) + rng.standard_normal((2, 32)))
            for _ in range(8)
        ]
        scheme = CountingScheme()
        _, records = ClusterMerger(scheme=scheme, max_clusters=5).merge(clusters)
        assert records
        assert scheme.calls <= len(records) + 1

        reference_scheme = CountingScheme()
        reference_merge(ClusterMerger(scheme=reference_scheme, max_clusters=5), clusters)
        assert reference_scheme.calls >= 29
