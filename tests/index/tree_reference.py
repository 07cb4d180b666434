"""Reference pointer tree: the exact tree as it was before the flat
node table.

:class:`ReferenceHybridTree` builds linked :class:`_Node` objects and
bounds one node per call with the classic per-point bound and selects
under the ``(distance, id)`` order.  Node ids are pre-order, like the
flat table's.  :class:`repro.index.tree.HybridTree` must reproduce its
results, cost counters, node caches and leaf membership; the oracle
tests in ``test_tree_oracle.py`` hold it to that.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.kernels import ensure_compiled
from repro.core.progressive import prune_threshold
from repro.index.linear import KnnResult, SearchCost, page_capacity_for

__all__ = ["ReferenceHybridTree"]


@dataclass
class _Node:
    node_id: int
    low: np.ndarray
    high: np.ndarray
    indices: Optional[np.ndarray] = None
    left: Optional["_Node"] = None
    right: Optional["_Node"] = None

    @property
    def is_leaf(self) -> bool:
        return self.indices is not None


class ReferenceHybridTree:
    """Median-split bucket tree of linked nodes, best-first k-NN."""

    def __init__(self, vectors, node_size_bytes=4096, leaf_capacity=None) -> None:
        self.vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=float)
        if leaf_capacity is None:
            leaf_capacity = page_capacity_for(self.vectors.shape[1], node_size_bytes)
        self.leaf_capacity = leaf_capacity
        self._id_counter = itertools.count()
        self.root = self._build(np.arange(self.vectors.shape[0]))
        self.n_nodes = next(self._id_counter)

    def _build(self, indices: np.ndarray) -> _Node:
        subset = self.vectors[indices]
        low = subset.min(axis=0)
        high = subset.max(axis=0)
        node_id = next(self._id_counter)
        if indices.shape[0] <= self.leaf_capacity:
            return _Node(node_id=node_id, low=low, high=high, indices=indices)
        spreads = high - low
        split_dim = int(np.argmax(spreads))
        if spreads[split_dim] == 0.0:
            return _Node(node_id=node_id, low=low, high=high, indices=indices)
        order = np.argsort(subset[:, split_dim], kind="stable")
        half = indices.shape[0] // 2
        left = self._build(indices[order[:half]])
        right = self._build(indices[order[half:]])
        return _Node(node_id=node_id, low=low, high=high, left=left, right=right)

    def nodes(self) -> List[_Node]:
        """Every node, indexed by node id."""
        out: List[_Node] = [None] * self.n_nodes  # type: ignore[list-item]
        stack = [self.root]
        while stack:
            node = stack.pop()
            out[node.node_id] = node
            if not node.is_leaf:
                stack.extend((node.left, node.right))
        return out

    def knn(self, query, k: int, node_cache: Optional[Set[int]] = None) -> KnnResult:
        k = min(k, self.vectors.shape[0])
        prepared = ensure_compiled(query).bound_infos()

        def aggregate_bound(node: _Node) -> float:
            per_point = np.empty(len(prepared))
            for position, (center, diagonal, lambda_min) in enumerate(prepared):
                delta = np.maximum(np.maximum(node.low - center, center - node.high), 0.0)
                if diagonal is not None:
                    per_point[position] = float(np.sum(diagonal * delta**2))
                else:
                    per_point[position] = lambda_min * float(np.sum(delta**2))
            return float(query.lower_bound_from_center_distance(per_point)[0])

        def kth_cut() -> float:
            # Open nodes bounded at or just above the k-th (distance, id).
            if len(best) < k:
                return float("inf")
            return prune_threshold(max(best)[0])

        counter = itertools.count()
        frontier = [(aggregate_bound(self.root), next(counter), self.root)]
        best: List[Tuple[float, int]] = []  # (distance, id), unordered
        node_accesses = io_accesses = cached_accesses = 0
        distance_evaluations = 0
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > kth_cut():
                break
            node_accesses += 1
            if node_cache is not None and node.node_id in node_cache:
                cached_accesses += 1
            else:
                io_accesses += 1
                if node_cache is not None:
                    node_cache.add(node.node_id)
            if node.is_leaf:
                distances = query.distances(self.vectors[node.indices])
                distance_evaluations += node.indices.shape[0]
                for distance, index in zip(distances, node.indices):
                    best.append((float(distance), int(index)))
                    if len(best) > k:
                        best.remove(max(best))
            else:
                for child in (node.left, node.right):
                    child_bound = aggregate_bound(child)
                    if child_bound <= kth_cut():
                        heapq.heappush(frontier, (child_bound, next(counter), child))
        ordered = sorted(best)
        return KnnResult(
            indices=np.array([index for _, index in ordered], dtype=int),
            distances=np.array([distance for distance, _ in ordered]),
            cost=SearchCost(
                node_accesses=node_accesses,
                io_accesses=io_accesses,
                cached_accesses=cached_accesses,
                distance_evaluations=distance_evaluations,
            ),
        )
