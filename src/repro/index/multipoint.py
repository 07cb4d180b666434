"""Session-level multipoint search with node caching (paper Figure 7).

Figure 7 compares the per-iteration execution cost of three query
evaluation strategies:

* **multipoint approach** [7] (what Qcluster uses): evaluate the
  aggregate distance once per iteration, caching index nodes across the
  feedback iterations of one query session so revisited regions cost no
  further I/O;
* **centroid-based approach** (MARS / FALCON style): issue one fresh
  k-NN per representative (or per query re-weighting) every iteration,
  with no cross-iteration reuse.

:class:`MultipointSearcher` owns the per-session node cache;
:class:`CentroidSearcher` models the baseline by clearing state every
iteration and paying one scan per representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

import numpy as np

from ..core.distance import DisjunctiveQuery
from ..core.kernels import ensure_compiled
from ..core.progressive import exact_top_k
from .linear import KnnResult, SearchCost
from .tree import HybridTree

__all__ = ["MultipointSearcher", "CentroidSearcher", "SessionCostLog"]


@dataclass
class SessionCostLog:
    """Accumulated per-iteration costs of one feedback session."""

    per_iteration: List[SearchCost] = field(default_factory=list)

    @property
    def io_accesses(self) -> List[int]:
        """Uncached node reads per iteration — the Figure 7 series."""
        return [cost.io_accesses for cost in self.per_iteration]

    @property
    def total_io(self) -> int:
        return sum(self.io_accesses)


class MultipointSearcher:
    """Qcluster's search strategy: one aggregate k-NN, cached nodes.

    Args:
        tree: the index to search.

    The cache persists for the lifetime of the searcher, i.e. one query
    session; :meth:`reset` starts a new session.
    """

    def __init__(self, tree: HybridTree) -> None:
        self.tree = tree
        self._cache: Set[int] = set()
        self.log = SessionCostLog()

    def reset(self) -> None:
        """Start a new query session (cold cache, fresh log)."""
        self._cache = set()
        self.log = SessionCostLog()

    @property
    def cache_size(self) -> int:
        """Number of index nodes currently resident."""
        return len(self._cache)

    def search(self, query: DisjunctiveQuery, k: int) -> KnnResult:
        """k-NN for this iteration, reusing nodes cached by earlier ones."""
        result = self.tree.knn(query, k, node_cache=self._cache)
        self.log.per_iteration.append(result.cost)
        return result


class CentroidSearcher:
    """Baseline strategy: one *fresh* k-NN per representative, no cache.

    Models how a centroid-based system (MARS-style) evaluates a refined
    query: each of the ``g`` representatives triggers its own index
    search and the per-representative results are merged by aggregate
    distance.  Costs are summed over representatives.
    """

    def __init__(self, tree: HybridTree) -> None:
        self.tree = tree
        self.log = SessionCostLog()

    def reset(self) -> None:
        """Start a new query session (fresh log)."""
        self.log = SessionCostLog()

    def search(self, query: DisjunctiveQuery, k: int) -> KnnResult:
        """Per-representative k-NNs merged into one ranking."""
        # Compile the aggregate query up front: the per-representative
        # sub-searches and the final merge ranking below then share one
        # kernel set instead of rebuilding evaluators mid-search.
        ensure_compiled(query)
        candidate_indices: Set[int] = set()
        node_accesses = 0
        io_accesses = 0
        distance_evaluations = 0
        for point in query.points:
            single = DisjunctiveQuery([point])
            result = self.tree.knn(single, k, node_cache=None)
            candidate_indices.update(int(i) for i in result.indices)
            node_accesses += result.cost.node_accesses
            io_accesses += result.cost.io_accesses
            distance_evaluations += result.cost.distance_evaluations
        candidates = np.fromiter(candidate_indices, dtype=int)
        distances = query.distances(self.tree.vectors[candidates])
        # O(N + k log k) selection instead of a full O(N log N) sort;
        # tie-breaking on the database id keeps the merge deterministic
        # regardless of set-iteration order.
        order = exact_top_k(distances, min(k, candidates.shape[0]), tie_break=candidates)
        cost = SearchCost(
            node_accesses=node_accesses,
            io_accesses=io_accesses,
            cached_accesses=0,
            distance_evaluations=distance_evaluations + candidates.shape[0],
        )
        self.log.per_iteration.append(cost)
        return KnnResult(
            indices=candidates[order], distances=distances[order], cost=cost
        )
