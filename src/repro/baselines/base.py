"""Shared pieces of the baseline implementations.

The baselines accumulate the relevant set across iterations (every
method in the paper's comparison sees the same judgments) and rank the
database with some aggregate of per-point quadratic distances.
:class:`PowerMeanQuery` generalizes the paper's Equation 4 to arbitrary
exponents so one query type serves QEX (arithmetic mean — one convex
contour) and FALCON (strongly negative exponent — fuzzy OR over all
relevant points).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core import kernels as _kernels
from ..core.distance import QueryPoint, fold_clusters, quadratic_distance_many
from ..retrieval.methods import FeedbackMethod

__all__ = ["PowerMeanQuery", "AccumulatingMethod", "diagonal_inverse_from_points"]

_DISTANCE_FLOOR = 1e-12


def diagonal_inverse_from_points(
    points: np.ndarray,
    scores: Optional[Sequence[float]] = None,
    regularization: float = 1e-6,
) -> np.ndarray:
    """MARS-style diagonal re-weighting matrix from a relevant set.

    Each dimension's weight is the reciprocal of the (score-weighted)
    variance of the relevant points along it — the classic re-weighting
    rule the paper attributes to MARS.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if scores is None:
        weights = np.ones(points.shape[0])
    else:
        weights = np.asarray(scores, dtype=float)
    total = weights.sum()
    mean = weights @ points / total
    variances = weights @ (points - mean) ** 2 / total
    variances = np.maximum(variances, regularization)
    return np.diag(1.0 / variances)


@dataclass(frozen=True)
class PowerMeanQuery:
    """Aggregate query: the ``alpha``-power mean of per-point distances.

    Implements Equation 4 for arbitrary exponent over query points with
    individual centers, inverse matrices and weights.

    Attributes:
        centers: ``(g, p)`` query-point matrix.
        inverses: per-point ``S^{-1}`` matrices (length ``g``).
        weights: per-point weights (relative importance in the mean).
        alpha: power-mean exponent; 1 = weighted average (convex,
            conjunctive contour), negative = fuzzy OR.
    """

    centers: np.ndarray
    inverses: Tuple[np.ndarray, ...]
    weights: np.ndarray
    alpha: float

    def __post_init__(self) -> None:
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        object.__setattr__(self, "centers", centers)
        if centers.shape[0] == 0:
            raise ValueError("a query needs at least one point")
        if len(self.inverses) != centers.shape[0]:
            raise ValueError("need one inverse matrix per query point")
        weights = np.asarray(self.weights, dtype=float)
        if weights.shape != (centers.shape[0],):
            raise ValueError("need one weight per query point")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        object.__setattr__(self, "weights", weights)
        if self.alpha == 0.0:
            raise ValueError("alpha must be non-zero")

    @property
    def size(self) -> int:
        """Number of query points."""
        return self.centers.shape[0]

    @property
    def dimension(self) -> int:
        """Feature-space dimensionality (index interface)."""
        return self.centers.shape[1]

    @property
    def points(self) -> List[QueryPoint]:
        """The query points as :class:`QueryPoint` records (index interface)."""
        return [
            QueryPoint(center=center, inverse=inverse, weight=float(weight))
            for center, inverse, weight in zip(self.centers, self.inverses, self.weights)
        ]

    def combine_per_cluster(self, per_point: np.ndarray) -> np.ndarray:
        """Fold a ``(g, N)`` per-point matrix into the power-mean aggregate.

        The weighted power mean is monotone increasing in every
        coordinate (for any non-zero exponent), so per-point *lower
        bounds* — box bounds or progressive coordinate prefixes —
        combine into a valid aggregate lower bound; each column's value
        is bitwise what it gives on its own.
        """
        per_point = np.atleast_2d(np.asarray(per_point, dtype=float))
        normalized = self.weights / self.weights.sum()
        if self.alpha < 0:
            per_point = np.maximum(per_point, _DISTANCE_FLOOR)
        return fold_clusters(normalized, per_point**self.alpha) ** (1.0 / self.alpha)

    def per_point_distances(self, database: np.ndarray) -> np.ndarray:
        """``(g, N)`` per-query-point quadratic distances.

        Shares the compiled-kernel layer with the disjunctive query, so
        the baselines' rankings enjoy the same diagonal fast path and
        fused whitening matmul (and the same cross-call kernel cache)
        as Qcluster's own.
        """
        database = np.atleast_2d(np.asarray(database, dtype=float))
        if _kernels.kernels_enabled():
            return _kernels.ensure_compiled(self).per_cluster_distances(database)
        return np.stack(
            [
                quadratic_distance_many(database, center, inverse)
                for center, inverse in zip(self.centers, self.inverses)
            ]
        )

    def distances(self, database: np.ndarray) -> np.ndarray:
        """Weighted ``alpha``-power mean of per-point distances."""
        return self.combine_per_cluster(self.per_point_distances(database))


class AccumulatingMethod(FeedbackMethod):
    """Base for baselines that pool judgments across iterations.

    Subclasses implement :meth:`build_query` from the accumulated
    relevant set; the bookkeeping (deduplication, initial query) lives
    here.
    """

    def __init__(self) -> None:
        self._points: List[np.ndarray] = []
        self._scores: List[float] = []
        self._seen: set = set()
        self._initial: Optional[np.ndarray] = None

    # -- FeedbackMethod ------------------------------------------------

    def start(self, query_point: np.ndarray):
        point = np.asarray(query_point, dtype=float)
        if point.ndim != 1:
            raise ValueError(f"query point must be 1-d, got shape {point.shape}")
        self._points = []
        self._scores = []
        self._seen = set()
        self._initial = point
        return PowerMeanQuery(
            centers=point[None, :],
            inverses=(np.eye(point.shape[0]),),
            weights=np.ones(1),
            alpha=1.0,
        )

    def feedback(self, relevant_points: np.ndarray, scores=None):
        points = np.atleast_2d(np.asarray(relevant_points, dtype=float))
        if scores is None:
            scores = np.ones(points.shape[0])
        else:
            scores = np.asarray(scores, dtype=float)
            if scores.shape != (points.shape[0],):
                raise ValueError("need one score per point")
        for point, score in zip(points, scores):
            key = point.tobytes()
            if key in self._seen:
                continue
            self._seen.add(key)
            self._points.append(point)
            self._scores.append(float(score))
        if not self._points:
            return self.start(self._initial)
        return self.build_query(
            np.vstack(self._points), np.asarray(self._scores, dtype=float)
        )

    # -- subclass hook ---------------------------------------------------

    def build_query(self, points: np.ndarray, scores: np.ndarray):
        """Construct the refined query from the pooled relevant set."""
        raise NotImplementedError

    @property
    def initial_point(self) -> Optional[np.ndarray]:
        """The session's example feature vector."""
        return self._initial
