"""Distance functions: Equations 1, 4 and 5 plus the Example 3 scenario."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra.numpy import arrays

from repro.core.distance import (
    DisjunctiveQuery,
    QueryPoint,
    aggregate_distance,
    disjunctive_distance,
    quadratic_distance,
    quadratic_distance_many,
)
from repro.datasets.uniform import ball_membership, uniform_cube


class TestQuadraticDistance:
    def test_identity_is_squared_euclidean(self):
        assert quadratic_distance(
            np.array([3.0, 4.0]), np.zeros(2), np.eye(2)
        ) == pytest.approx(25.0)

    def test_vectorized_matches_scalar(self, rng):
        points = rng.standard_normal((20, 3))
        center = rng.standard_normal(3)
        raw = rng.standard_normal((5, 3))
        inverse = raw.T @ raw + np.eye(3)
        many = quadratic_distance_many(points, center, inverse)
        for i in range(20):
            assert many[i] == pytest.approx(quadratic_distance(points[i], center, inverse))

    @given(arrays(np.float64, (4, 3), elements=hst.floats(-10, 10)))
    @settings(max_examples=60, deadline=None)
    def test_non_negative_for_psd(self, points):
        distances = quadratic_distance_many(points, np.zeros(3), np.eye(3) * 2.0)
        assert np.all(distances >= 0)


class TestAggregateDistance:
    def test_alpha_one_is_average(self):
        assert aggregate_distance([2.0, 4.0], alpha=1.0) == pytest.approx(3.0)

    def test_negative_alpha_approaches_minimum(self):
        # Strongly negative exponents make the aggregate track the min
        # (the fuzzy-OR behaviour of Equation 4).
        distances = [1.0, 100.0, 100.0]
        assert aggregate_distance(distances, alpha=-50.0) == pytest.approx(
            1.0 * 3.0 ** (1 / 50), rel=1e-3
        )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            aggregate_distance([], alpha=1.0)
        with pytest.raises(ValueError):
            aggregate_distance([1.0], alpha=0.0)
        with pytest.raises(ValueError):
            aggregate_distance([-1.0], alpha=1.0)

    def test_power_mean_monotone_in_alpha(self):
        distances = [1.0, 2.0, 8.0]
        values = [aggregate_distance(distances, alpha) for alpha in (-5, -2, -1, 1, 2)]
        assert values == sorted(values)


class TestDisjunctiveDistance:
    def test_equation_5_by_hand(self):
        per_cluster = np.array([[1.0], [4.0]])
        weights = [2.0, 2.0]
        # (2+2) / (2/1 + 2/4) = 4 / 2.5 = 1.6
        result = disjunctive_distance(per_cluster, weights)
        assert result[0] == pytest.approx(1.6)

    def test_small_distance_dominates(self):
        near = disjunctive_distance(np.array([[0.01], [100.0]]), [1.0, 1.0])[0]
        far = disjunctive_distance(np.array([[50.0], [100.0]]), [1.0, 1.0])[0]
        assert near < 0.03
        assert far > 30.0

    def test_heavier_cluster_pulls_harder(self):
        distances = np.array([[1.0], [9.0]])
        light_first = disjunctive_distance(distances, [1.0, 9.0])[0]
        heavy_first = disjunctive_distance(distances, [9.0, 1.0])[0]
        # More mass on the *near* cluster -> smaller aggregate distance.
        assert heavy_first < light_first

    def test_zero_distance_is_clamped(self):
        result = disjunctive_distance(np.array([[0.0], [5.0]]), [1.0, 1.0])
        assert np.isfinite(result[0])
        assert result[0] >= 0

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            disjunctive_distance(np.ones((2, 3)), [1.0])
        with pytest.raises(ValueError):
            disjunctive_distance(np.ones((2, 3)), [1.0, 0.0])


class TestDisjunctiveQuery:
    def make_query(self, centers, weight=1.0):
        dim = len(centers[0])
        return DisjunctiveQuery(
            [
                QueryPoint(center=np.asarray(c, dtype=float), inverse=np.eye(dim), weight=weight)
                for c in centers
            ]
        )

    def test_single_point_is_plain_quadratic(self, rng):
        center = rng.standard_normal(3)
        query = self.make_query([center])
        points = rng.standard_normal((10, 3))
        expected = quadratic_distance_many(points, center, np.eye(3))
        np.testing.assert_allclose(query.distances(points), expected)

    def test_validation(self):
        with pytest.raises(ValueError):
            DisjunctiveQuery([])
        with pytest.raises(ValueError):
            DisjunctiveQuery(
                [
                    QueryPoint(np.zeros(2), np.eye(2), 1.0),
                    QueryPoint(np.zeros(3), np.eye(3), 1.0),
                ]
            )
        with pytest.raises(ValueError):
            QueryPoint(np.zeros(2), np.eye(2), 0.0)

    def test_scalar_distance_matches_vector(self, rng):
        query = self.make_query([[0.0, 0.0], [5.0, 5.0]])
        x = rng.standard_normal(2)
        assert query.distance(x) == pytest.approx(query.distances(x[None, :])[0])

    def test_example_3_disjunctive_retrieval(self):
        """Paper Example 3 / Figure 5: two separated balls are retrieved.

        10,000 uniform points in [-2,2]^3; the aggregate distance around
        (-1,-1,-1) and (1,1,1) must retrieve points from *both* balls and
        nothing near the middle of the segment between them.
        """
        rng = np.random.default_rng(42)
        points = uniform_cube(10_000, rng=rng)
        query = self.make_query([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
        distances = query.distances(points)
        truth = ball_membership(points, [[-1.0] * 3, [1.0] * 3], radius=1.0)
        expected_count = int(truth.sum())
        # Two radius-1 balls occupy 2*(4pi/3)/64 ~ 13.1% of the cube, so
        # ~1309 of 10,000 points are expected.  (The paper quotes 820 for
        # its draw, which is inconsistent with its own stated geometry —
        # see EXPERIMENTS.md; the qualitative point is the two disjoint
        # regions, which we verify below.)
        assert 1150 < expected_count < 1450
        retrieved = np.argsort(distances)[:expected_count]
        # Retrieval by aggregate distance must recover the two balls almost
        # exactly (the harmonic aggregate is not a perfect union-of-balls
        # indicator, but the overlap should be near-total).
        overlap = np.intersect1d(retrieved, np.nonzero(truth)[0]).size
        assert overlap / expected_count > 0.9
        # Both balls are represented.
        near_a = ball_membership(points[retrieved], [[-1.0] * 3], 1.2)
        near_b = ball_membership(points[retrieved], [[1.0] * 3], 1.2)
        assert near_a.sum() > 0.25 * expected_count
        assert near_b.sum() > 0.25 * expected_count

    def test_lower_bound_is_valid(self, rng):
        """The box lower bound must never exceed a true aggregate distance."""
        query = self.make_query([[0.0, 0.0], [3.0, 3.0]], weight=2.0)
        points = rng.uniform(-1.0, 1.0, (50, 2))
        true_distances = query.distances(points)
        # Per-point lower bounds: zero (a box containing each center).
        bound = query.combine_per_cluster(np.zeros((2, 1)))
        assert np.all(bound <= true_distances + 1e-9)

    def test_weights_property(self):
        query = self.make_query([[0.0], [1.0]], weight=3.0)
        np.testing.assert_array_equal(query.weights, [3.0, 3.0])
        assert query.size == 2
        assert query.dimension == 1
