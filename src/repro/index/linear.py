"""Linear-scan k-NN — the reference the index is validated against.

Also the workhorse for small collections: a vectorized full scan over a
few thousand feature vectors is faster in numpy than tree traversal in
Python.  Cost accounting mirrors the tree's: the scan "reads" every data
page, where a page holds ``page_capacity`` vectors (the paper fixes
4 KB nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.distance import DisjunctiveQuery
from ..core.progressive import exact_top_k, progressive_topk
from ..obs import add_event

__all__ = ["SearchCost", "KnnResult", "LinearScan", "page_capacity_for"]


def page_capacity_for(dimension: int, node_size_bytes: int = 4096) -> int:
    """Vectors per disk page for 8-byte components (paper: 4 KB nodes)."""
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    if node_size_bytes < 8 * dimension:
        raise ValueError(
            f"node of {node_size_bytes} bytes cannot hold one {dimension}-d vector"
        )
    return max(1, node_size_bytes // (8 * dimension))


@dataclass(frozen=True)
class SearchCost:
    """Cost accounting of one k-NN evaluation.

    Attributes:
        node_accesses: total index/data nodes touched.
        io_accesses: nodes that had to be fetched (not in cache).
        cached_accesses: nodes served from the iteration cache.
        distance_evaluations: candidate vectors whose aggregate distance
            was computed.
        candidates_pruned: candidate vectors discarded by the
            progressive filter on a lower bound alone (no exact
            distance ever computed).
    """

    node_accesses: int
    io_accesses: int
    cached_accesses: int
    distance_evaluations: int
    candidates_pruned: int = 0

    @property
    def refine_fraction(self) -> float:
        """Exactly-evaluated share of the candidates the query touched.

        ``1.0`` means every candidate was refined (no progressive
        pruning); small values mean the filter did most of the work.
        """
        touched = self.distance_evaluations + self.candidates_pruned
        return self.distance_evaluations / touched if touched else 1.0


@dataclass(frozen=True)
class KnnResult:
    """Result of a k-NN query: indices, distances and its cost."""

    indices: np.ndarray
    distances: np.ndarray
    cost: SearchCost


class LinearScan:
    """Exact k-NN by scanning the whole vector matrix.

    Args:
        vectors: ``(n, p)`` database matrix.
        node_size_bytes: modelled page size for cost accounting.
    """

    def __init__(self, vectors: np.ndarray, node_size_bytes: int = 4096) -> None:
        # One C-contiguous float64 copy up front: every knn call
        # then hands the kernels an array they can scan without any
        # further conversion or copying.
        vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=float)
        if vectors.shape[0] == 0:
            raise ValueError("cannot index an empty database")
        self.vectors = vectors
        self.page_capacity = page_capacity_for(vectors.shape[1], node_size_bytes)

    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        return self.vectors.shape[0]

    @property
    def n_pages(self) -> int:
        """Data pages the scan reads."""
        return -(-self.size // self.page_capacity)

    def knn(self, query: DisjunctiveQuery, k: int) -> KnnResult:
        """Exact ``k`` nearest neighbours under the query's aggregate distance."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        k = min(k, self.size)
        # Filter-and-refine fast path: lower-bound every row on a
        # coordinate prefix, compute exact distances only for survivors.
        # Byte-identical to the full scan below; pages are still read in
        # full (the filter touches every row), only distance arithmetic
        # is saved.
        progressive = progressive_topk(self.vectors, query, k)
        if progressive is not None:
            cost = SearchCost(
                node_accesses=self.n_pages,
                io_accesses=self.n_pages,
                cached_accesses=0,
                distance_evaluations=progressive.stats.refined,
                candidates_pruned=progressive.stats.pruned,
            )
            return KnnResult(
                indices=progressive.indices,
                distances=progressive.distances,
                cost=cost,
            )
        distances = query.distances(self.vectors)
        order = exact_top_k(distances, k)
        cost = SearchCost(
            node_accesses=self.n_pages,
            io_accesses=self.n_pages,
            cached_accesses=0,
            distance_evaluations=self.size,
        )
        add_event("linear_scan", pages=self.n_pages, refined=self.size, pruned=0)
        return KnnResult(indices=order, distances=distances[order], cost=cost)
