"""Distance functions of the Qcluster paper (Equations 1, 4, 5 and 7).

Three quadratic forms appear in the paper and all are provided here in
both scalar and vectorized (whole-database) form:

* :func:`quadratic_distance` — per-cluster generalized Euclidean distance
  ``d^2(x, x̄_i) = (x - x̄_i)' S_i^{-1} (x - x̄_i)`` (Equation 1),
* :func:`aggregate_distance` — the general power-mean aggregate over
  multiple query points (Equation 4) with exponent ``alpha``; negative
  exponents mimic a fuzzy OR,
* :func:`disjunctive_distance` — the paper's operational choice
  (Equation 5): ``alpha = -2`` with per-cluster relevance masses ``m_i``
  folded in, i.e. a weighted harmonic mean of the per-cluster quadratic
  distances.  An image close to *any* cluster gets a small aggregate
  distance, which is what lets a multipoint query retrieve disjoint
  regions (Figure 5).

The vectorized forms accept an ``(N, p)`` matrix and return length-``N``
arrays; they are what the retrieval engine uses to rank a database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from . import kernels as _kernels

__all__ = [
    "quadratic_distance",
    "quadratic_distance_many",
    "aggregate_distance",
    "disjunctive_distance",
    "QueryPoint",
    "DisjunctiveQuery",
]

#: Distances below this are clamped before entering the harmonic mean so
#: that a database point coinciding exactly with a centroid does not
#: divide by zero; the point still ranks (essentially) first.
_DISTANCE_FLOOR = 1e-12


def quadratic_distance(x: np.ndarray, center: np.ndarray, inverse: np.ndarray) -> float:
    """Generalized Euclidean distance of Equation 1 for a single point."""
    diff = np.asarray(x, dtype=float) - np.asarray(center, dtype=float)
    return float(diff @ np.asarray(inverse, dtype=float) @ diff)


def quadratic_distance_many(
    points: np.ndarray, center: np.ndarray, inverse: np.ndarray
) -> np.ndarray:
    """Vectorized Equation 1: distances from every row of ``points``.

    Uses the identity ``diag(D A D') = sum((D A) * D, axis=1)`` to avoid
    materializing the full ``(N, N)`` product.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    centered = points - np.asarray(center, dtype=float)
    transformed = centered @ np.asarray(inverse, dtype=float)
    return np.einsum("ij,ij->i", transformed, centered)


def aggregate_distance(
    per_point_distances: Sequence[float],
    alpha: float = -2.0,
) -> float:
    """Power-mean aggregate over query points (Equation 4).

    ``d_aggregate^alpha = (1/g) Σ d_i^alpha`` — i.e. the aggregate is the
    ``alpha``-power mean of the individual distances.  ``alpha = 1`` is the
    plain average (the FALCON-like conjunctive flavour); ``alpha < 0``
    mimics a fuzzy OR because the smallest distance dominates.
    """
    distances = np.asarray(per_point_distances, dtype=float)
    if distances.size == 0:
        raise ValueError("aggregate_distance needs at least one distance")
    if np.any(distances < 0):
        raise ValueError("distances must be non-negative")
    if alpha == 0.0:
        raise ValueError("alpha must be non-zero (the power mean is undefined at 0)")
    if alpha < 0:
        distances = np.maximum(distances, _DISTANCE_FLOOR)
    return float(np.mean(distances**alpha) ** (1.0 / alpha))


def fold_clusters(weights: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """``Σ_i weights[i] · terms[i]`` over the rows of a ``(g, N)`` matrix.

    Summed cluster by cluster in order, so every column's value is what
    that column gives on its own: a row's aggregate distance, or a tree
    node's bound, does not depend on how many are folded together (a
    ``tensordot`` or a column ``sum`` may change its summation order with
    ``N``).
    """
    total = weights[0] * terms[0]
    for weight, row in zip(weights[1:], terms[1:]):
        total += weight * row
    return total


def disjunctive_distance(
    per_cluster_distances: np.ndarray,
    cluster_weights: Sequence[float],
) -> np.ndarray:
    """The paper's disjunctive aggregate (Equation 5), vectorized.

    Args:
        per_cluster_distances: ``(g, N)`` matrix where row ``i`` holds the
            quadratic distances of every database point to cluster ``i``.
        cluster_weights: length-``g`` relevance masses ``m_i``.

    Returns:
        Length-``N`` array of
        ``Σ m_i / Σ (m_i / d_i^2(x))`` — the ``m``-weighted harmonic mean
        of the per-cluster distances.
    """
    distances = np.atleast_2d(np.asarray(per_cluster_distances, dtype=float))
    weights = np.asarray(cluster_weights, dtype=float)
    if weights.shape != (distances.shape[0],):
        raise ValueError(
            f"need one weight per cluster: got {weights.shape} weights for "
            f"{distances.shape[0]} clusters"
        )
    if np.any(weights <= 0):
        raise ValueError("cluster weights must be strictly positive")
    clamped = np.maximum(distances, _DISTANCE_FLOOR)
    return weights.sum() / fold_clusters(weights, 1.0 / clamped)


@dataclass(frozen=True)
class QueryPoint:
    """One representative of a multipoint query.

    Attributes:
        center: cluster centroid ``x̄_i``.
        inverse: the cluster's ``S_i^{-1}`` under the active scheme.
        weight: relevance mass ``m_i``.
        diagonal: the diagonal of ``S_i^{-1}`` when the matrix is exactly
            diagonal (the diagonal covariance scheme), else ``None``.
            Lets the compiled-kernel layer take its O(N·p) fast path
            without inspecting the dense matrix; the dense ``inverse``
            stays authoritative for every other consumer.
    """

    center: np.ndarray
    inverse: np.ndarray
    weight: float
    diagonal: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"query-point weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class DisjunctiveQuery:
    """A ready-to-evaluate multipoint query ``Q = {x̄_1, ..., x̄_g}``.

    Built by the Qcluster engine from the current cluster set; the index
    and the linear scanner both rank database points by
    :meth:`distances`.
    """

    points: List[QueryPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a disjunctive query needs at least one query point")
        dims = {qp.center.shape[0] for qp in self.points}
        if len(dims) != 1:
            raise ValueError(f"query points disagree on dimensionality: {sorted(dims)}")

    @property
    def dimension(self) -> int:
        """Feature-space dimensionality of the query."""
        return self.points[0].center.shape[0]

    @property
    def size(self) -> int:
        """Number of query points ``g``."""
        return len(self.points)

    @property
    def weights(self) -> np.ndarray:
        """Per-cluster relevance masses ``m_i``."""
        return np.array([qp.weight for qp in self.points])

    def compiled(self) -> "_kernels.CompiledQuery":
        """This query's compiled kernels (built at most once, cached)."""
        return _kernels.ensure_compiled(self)

    def per_cluster_distances(self, database: np.ndarray) -> np.ndarray:
        """``(g, N)`` quadratic distances of every database row to each point.

        Served by the compiled-kernel layer (:mod:`repro.core.kernels`):
        diagonal ``S^{-1}`` points cost O(N·p), full matrices go through
        one fused whitening matmul.  The naive quadratic form remains
        available behind :func:`repro.core.kernels.use_kernels` for
        equivalence testing and benchmarking.
        """
        database = np.atleast_2d(np.asarray(database, dtype=float))
        if _kernels.kernels_enabled():
            return self.compiled().per_cluster_distances(database)
        return np.stack(
            [
                quadratic_distance_many(database, qp.center, qp.inverse)
                for qp in self.points
            ]
        )

    def combine_per_cluster(self, per_cluster: np.ndarray) -> np.ndarray:
        """Fold a ``(g, N)`` per-cluster matrix into aggregate distances.

        The harmonic combination is monotone increasing in every
        per-cluster entry, so feeding per-cluster *lower bounds* (tree
        boxes, progressive coordinate prefixes) yields a valid lower
        bound on the aggregate; each column's value is bitwise what it
        gives on its own (see :func:`fold_clusters`).
        """
        per_cluster = np.atleast_2d(np.asarray(per_cluster, dtype=float))
        if self.size == 1:
            # A single query point degenerates to the plain quadratic
            # distance — exactly MindReader's model.
            return per_cluster[0]
        return disjunctive_distance(per_cluster, self.weights)

    def distances(self, database: np.ndarray) -> np.ndarray:
        """Length-``N`` disjunctive aggregate distances (Equation 5)."""
        return self.combine_per_cluster(self.per_cluster_distances(database))

    def distance(self, x: np.ndarray) -> float:
        """Aggregate distance for one point (scalar convenience)."""
        return float(self.distances(np.asarray(x, dtype=float)[None, :])[0])
