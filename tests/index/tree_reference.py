"""Reference pointer trees: the exact and ANN trees as they were before
the flat node table.

:class:`ReferenceHybridTree` builds linked :class:`_Node` objects and
bounds one node per call (a classic per-point bound, or the progressive
plan's per-prefix bound for that single box); :class:`ReferenceSpillTree`
builds linked :class:`_SpillNode` objects and descends them.  Node ids
are pre-order, like the flat table's.  :class:`repro.index.tree.HybridTree`
and :class:`repro.index.tree.SpillTree` must reproduce their results,
cost counters, node caches, leaf membership and calibrated recall; the
oracle tests in ``test_tree_oracle.py`` hold them to that.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.kernels import ensure_compiled
from repro.core.progressive import (
    _RELATIVE_SLACK,
    _DiagonalPrefix,
    exact_top_k,
    prune_threshold,
)
from repro.index import tree as flat
from repro.index.linear import KnnResult, SearchCost, page_capacity_for

__all__ = ["ReferenceHybridTree", "ReferenceSpillTree", "reference_plan_box_bounds"]


def reference_plan_box_bounds(plan, low: np.ndarray, high: np.ndarray) -> np.ndarray:
    """The progressive plan's per-cluster bounds for one box, per prefix."""
    bounds = []
    for prefix in plan.prefixes:
        delta = np.maximum(np.maximum(low - prefix.center, prefix.center - high), 0.0)
        if isinstance(prefix, _DiagonalPrefix):
            bounds.append(float(np.sum(prefix.weights * delta * delta)))
            continue
        mid = 0.5 * (low + high) - prefix.center
        half = 0.5 * (high - low)
        m = mid @ prefix.node_transform
        r = half @ prefix.node_abs
        interval = float(np.sum(np.maximum(np.abs(m) - r, 0.0) ** 2))
        classic = prefix.lambda_min * float(np.sum(delta * delta))
        bounds.append(max(interval * (1.0 - _RELATIVE_SLACK), classic))
    return np.array(bounds)


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
        plan = flat.HybridTree._progressive_plan(query)

        def aggregate_bound(node: _Node) -> float:
            if plan is not None:
                per_point = reference_plan_box_bounds(plan, node.low, node.high)
            else:
                per_point = np.empty(len(prepared))
                for position, (center, diagonal, lambda_min) in enumerate(prepared):
                    delta = np.maximum(
                        np.maximum(node.low - center, center - node.high), 0.0
                    )
                    if diagonal is not None:
                        per_point[position] = float(np.sum(diagonal * delta**2))
                    else:
                        per_point[position] = lambda_min * float(np.sum(delta**2))
            return float(query.lower_bound_from_center_distance(per_point)[0])

        counter = itertools.count()
        frontier = [(aggregate_bound(self.root), next(counter), self.root)]
        best: List[Tuple[float, int]] = []
        node_accesses = io_accesses = cached_accesses = 0
        distance_evaluations = candidates_pruned = 0
        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if len(best) == k and bound >= -best[0][0]:
                break
            node_accesses += 1
            if node_cache is not None and node.node_id in node_cache:
                cached_accesses += 1
            else:
                io_accesses += 1
                if node_cache is not None:
                    node_cache.add(node.node_id)
            if node.is_leaf:
                candidates = node.indices
                if plan is not None and len(best) == k and candidates.shape[0] >= 8:
                    cut = prune_threshold(-best[0][0])
                    leaf_bounds = query.combine_per_cluster(
                        plan.prefix_distances(
                            self.vectors[candidates], 0, plan.schedule[0]
                        )
                    )
                    keep = leaf_bounds <= cut
                    candidates_pruned += int(
                        candidates.shape[0] - np.count_nonzero(keep)
                    )
                    candidates = candidates[keep]
                    if candidates.shape[0] == 0:
                        continue
                distances = query.distances(self.vectors[candidates])
                distance_evaluations += candidates.shape[0]
                for distance, index in zip(distances, candidates):
                    if len(best) < k:
                        heapq.heappush(best, (-float(distance), int(index)))
                    elif distance < -best[0][0]:
                        heapq.heapreplace(best, (-float(distance), int(index)))
            else:
                for child in (node.left, node.right):
                    child_bound = aggregate_bound(child)
                    if len(best) < k or child_bound < -best[0][0]:
                        heapq.heappush(frontier, (child_bound, next(counter), child))
        ordered = sorted(best, key=lambda item: -item[0])
        return KnnResult(
            indices=np.array([index for _, index in ordered], dtype=int),
            distances=np.array([-negative for negative, _ in ordered]),
            cost=SearchCost(
                node_accesses=node_accesses,
                io_accesses=io_accesses,
                cached_accesses=cached_accesses,
                distance_evaluations=distance_evaluations,
                candidates_pruned=candidates_pruned,
            ),
        )


@dataclass
class _SpillNode:
    node_id: int
    indices: Optional[np.ndarray] = None
    axis: Optional[int] = None
    direction: Optional[np.ndarray] = None
    route: float = 0.0
    low: float = 0.0
    high: float = 0.0
    left: Optional["_SpillNode"] = None
    right: Optional["_SpillNode"] = None

    @property
    def is_leaf(self) -> bool:
        return self.indices is not None

    def project(self, point: np.ndarray) -> float:
        if self.axis is not None:
            return float(point[self.axis])
        return float(point @ self.direction)


class ReferenceSpillTree:
    """Overlapping-split tree of linked nodes, defeatist search."""

    def __init__(self, vectors, config: flat.SpillTreeConfig) -> None:
        self.vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=float)
        self.config = config
        if config.leaf_capacity is not None:
            self.leaf_capacity = config.leaf_capacity
        else:
            per_page = page_capacity_for(self.vectors.shape[1])
            self.leaf_capacity = max(256, min(4096, 32 * per_page))
        self._rng = np.random.default_rng(config.seed)
        self._id_counter = itertools.count()
        self.root = self._build(np.arange(self.vectors.shape[0]))
        self.n_nodes = next(self._id_counter)
        self.calibrated_recall = self._calibrate()

    def _split_direction(self, subset):
        if self.config.rule == "kd":
            axis = int(np.argmax(subset.var(axis=0)))
            return axis, None, subset[:, axis]
        best = None
        best_spread = -1.0
        best_projections = None
        for _ in range(flat._SAMPLES_RP):
            direction = self._rng.standard_normal(subset.shape[1])
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                continue
            direction /= norm
            projections = subset @ direction
            spread = float(projections.var())
            if spread > best_spread:
                best, best_spread = direction, spread
                best_projections = projections
        return None, best, best_projections

    def _build(self, indices: np.ndarray) -> _SpillNode:
        node_id = next(self._id_counter)
        if indices.shape[0] <= self.leaf_capacity:
            return _SpillNode(node_id=node_id, indices=indices)
        subset = self.vectors[indices]
        axis, direction, projections = self._split_direction(subset)
        if float(projections.max() - projections.min()) == 0.0:
            return _SpillNode(node_id=node_id, indices=indices)
        half_spill = self.config.spill / 2.0
        low, route, high = np.quantile(
            projections, [0.5 - half_spill, 0.5, 0.5 + half_spill]
        )
        left_mask = projections <= high
        right_mask = projections >= low
        if bool(left_mask.all()) or bool(right_mask.all()):
            order = np.argsort(projections, kind="stable")
            half = indices.shape[0] // 2
            cut = float(projections[order[half]])
            node = _SpillNode(
                node_id=node_id, axis=axis, direction=direction,
                route=cut, low=cut, high=cut,
            )
            node.left = self._build(indices[order[:half]])
            node.right = self._build(indices[order[half:]])
            return node
        node = _SpillNode(
            node_id=node_id, axis=axis, direction=direction,
            route=float(route), low=float(low), high=float(high),
        )
        node.left = self._build(indices[left_mask])
        node.right = self._build(indices[right_mask])
        return node

    def nodes(self) -> List[_SpillNode]:
        """Every node, indexed by node id."""
        out: List[_SpillNode] = [None] * self.n_nodes  # type: ignore[list-item]
        stack = [self.root]
        while stack:
            node = stack.pop()
            out[node.node_id] = node
            if not node.is_leaf:
                stack.extend((node.left, node.right))
        return out

    def descend(self, point: np.ndarray) -> Tuple[List[_SpillNode], int]:
        leaves: List[_SpillNode] = []
        stack = [self.root]
        visited = 0
        while stack and len(leaves) < self.config.max_leaves:
            node = stack.pop()
            visited += 1
            if node.is_leaf:
                leaves.append(node)
                continue
            projection = node.project(point)
            if projection <= node.low:
                stack.append(node.left)
            elif projection >= node.high:
                stack.append(node.right)
            elif projection <= node.route:
                stack.append(node.right)
                stack.append(node.left)
            else:
                stack.append(node.left)
                stack.append(node.right)
        return leaves, visited

    def defeatist_search(self, query, k: int):
        ensure_compiled(query)
        visited = 0
        member = np.zeros(self.vectors.shape[0], dtype=bool)
        for query_point in query.points:
            leaves, steps = self.descend(np.asarray(query_point.center, dtype=float))
            visited += steps
            for leaf in leaves:
                member[leaf.indices] = True
        candidates = np.nonzero(member)[0]
        distances = query.distances(self.vectors[candidates])
        order = exact_top_k(distances, min(k, candidates.shape[0]), tie_break=candidates)
        return candidates[order], distances[order], visited

    def _calibrate(self) -> float:
        size = self.vectors.shape[0]
        n_queries = min(flat._CALIBRATION_QUERIES, size)
        rng = np.random.default_rng(self.config.seed + 1)
        sample = rng.choice(size, size=n_queries, replace=False)
        k = min(flat._CALIBRATION_K, size)
        recalls: List[float] = []
        for row in sample:
            point = self.vectors[int(row)]
            leaves, _ = self.descend(point)
            reached = set(int(i) for leaf in leaves for i in leaf.indices)
            exact = np.sum((self.vectors - point) ** 2, axis=1)
            true_top = exact_top_k(exact, k)
            hits = sum(1 for i in true_top if int(i) in reached)
            recalls.append(hits / k)
        return float(np.mean(recalls))
