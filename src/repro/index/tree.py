"""Array-backed kd-style trees: the exact index and the ANN tier.

The paper indexes feature vectors with the hybrid tree of Chakrabarti &
Mehrotra, a disk-based index with 4 KB nodes and best-first k-NN.  What
the reproduction needs is page-sized leaf buckets, node regions that
yield *lower bounds* on any (quadratic/aggregate) distance, and
countable node accesses for the Figure 7 cost comparison.  A bucketed
kd tree has all three; the hybrid tree's own split machinery affects
constants, not the shape of any reported result.

Both trees share one node table and one build.  Node ids are assigned
in pre-order (root 0); node ``i`` has children ``left[i]`` /
``right[i]`` (``-1`` on a leaf) and owns ``rows[start[i]:stop[i]]`` of
one permuted row array — for an internal node, its leaves' rows
concatenated.  A node of at most ``leaf_capacity`` rows is a leaf;
otherwise the tree's split rule projects its rows onto one direction,
a zero-spread projection (duplicate rows, a constant subset) keeps an
oversized leaf, and the rule's cut yields the two children.

:class:`HybridTree` is the exact index: a stable half split on the
widest-spread axis and a ``(nodes, p)`` bounding box per node.  For a
box and a quadratic form ``A``, the form at the box's nearest point
``x*`` satisfies ``(x*-c)'A(x*-c) >= lambda_min(A) ||x*-c||^2``, and
for diagonal ``A`` the per-axis bound ``sum_j A_jj delta_j^2`` is
exact; the aggregate is monotone in each per-cluster distance, so the
per-cluster bounds combine into an aggregate one.  Every node's bound
is computed in one vectorised pass per query and the best-first search
reads them from there.

:class:`SpillTree` is the ANN tier (Liu et al.'s spill trees, Dasgupta
& Freund's random-projection trees).  ``"kd"`` splits on the
maximum-variance coordinate, ``"rp"`` on the highest-variance of
``_SAMPLES_RP`` random unit directions.  Children *overlap*: the left
keeps projections up to the ``0.5 + spill/2`` quantile (``high``), the
right from the ``0.5 - spill/2`` quantile (``low``), so a spilled row
appears in ``rows`` once per leaf holding it.  Search is *defeatist*
and buffered: at or below ``low`` go left, at or above ``high`` right,
inside the buffer take both (nearer side first), capped at
``max_leaves`` leaves per query representative and never
backtracking — cost stays bounded while boundary queries (especially
under Qcluster's Mahalanobis-stretched contours) still reach their
neighbours' leaves.  The reached rows are ranked exactly by the
query's compiled kernels under the shared ``(distance, id)``
tie-break, so the *only* approximation is which rows are scored.  The
tree measures its own recall at build time
(:attr:`SpillTree.calibrated_recall`), which the service stamps on
every page of this tier; the recall/speedup contract is swept by
``benchmarks/test_ann_recall.py`` and enforced by
``compare_bench.py --suite ann``.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..core.distance import DisjunctiveQuery
from ..core.kernels import ensure_compiled
from ..core.progressive import exact_top_k, prune_threshold
from ..faults import fault_point, register_site
from ..obs import add_event
from .linear import KnnResult, SearchCost, page_capacity_for

__all__ = ["HybridTree", "SpillTree", "SpillTreeConfig", "DefeatistResult"]

#: Chaos-injection site: fires on every node access of a tree search,
#: keyed by node id — an error here aborts the search like a bad page
#: read would, which the service absorbs by falling back to the exact
#: sharded scan (identical results, recorded degradation).
_SITE_TREE_NODE = register_site("tree.node", "index node read during a tree search")

#: Chaos-injection site: fires on every node visited by a defeatist
#: descent, keyed by node id — an error aborts the ANN search like a
#: bad page read would, which the service absorbs by re-serving the
#: request through the exact scan (page stamped ``ann_fallback``).
_SITE_DESCEND = register_site(
    "index.descend", "spill-tree node read during a defeatist descent"
)

#: Random directions scored per ``"rp"`` split.
_SAMPLES_RP = 8

#: Database rows probed, and neighbours checked per probe, when a spill
#: tree measures its recall at build time.
_CALIBRATION_QUERIES = 32
_CALIBRATION_K = 10


class _FlatTree:
    """The node table and build skeleton both trees share.

    Subclasses supply the split rule: :meth:`_project` picks one
    oversized node's direction and :meth:`_cut` splits the projections
    into the children's rows; the records both return are kept in
    ``_splits[node]``.  Searches walk ``_links``, the table as Python
    lists (element reads from lists are far cheaper than from arrays).
    """

    def __init__(self, vectors: np.ndarray, leaf_capacity: int) -> None:
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be at least 1, got {leaf_capacity}")
        self.vectors = vectors
        self.leaf_capacity = leaf_capacity
        self._table: List[List[int]] = []  # [left, right, start, stop] per node
        self._chunks: List[np.ndarray] = []
        self._splits: Dict[int, tuple] = {}
        self._grow(np.arange(vectors.shape[0]), 0)
        self._links = tuple(map(list, zip(*self._table)))
        self.left, self.right, self.start, self.stop = (
            np.array(column, dtype=np.intp) for column in self._links
        )
        self.rows = np.concatenate(self._chunks)
        del self._table, self._chunks

    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        return self.vectors.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.left.shape[0]

    def leaf_sizes(self) -> List[int]:
        """Sizes of every leaf in node order (diagnostics and tests)."""
        leaves = self.left < 0
        return (self.stop[leaves] - self.start[leaves]).tolist()

    def _grow(self, indices: np.ndarray, start: int) -> int:
        node = len(self._table)
        entry = [-1, -1, start, start + indices.shape[0]]
        self._table.append(entry)
        if indices.shape[0] > self.leaf_capacity:
            projections, direction = self._project(self.vectors[indices])
            if float(projections.max() - projections.min()) != 0.0:
                left_rows, right_rows, thresholds = self._cut(projections)
                self._splits[node] = direction + thresholds
                entry[0] = self._grow(indices[left_rows], start)
                entry[1] = self._grow(indices[right_rows], self._table[entry[0]][3])
                entry[3] = self._table[entry[1]][3]
                return node
            # Zero spread along the rule's direction: no split can
            # separate anything — an oversized leaf, not endless recursion.
        self._chunks.append(indices)
        return node

    def _project(self, subset: np.ndarray) -> Tuple[np.ndarray, tuple]:
        """``(projections, direction record)`` of one oversized node."""
        raise NotImplementedError

    def _cut(self, projections: np.ndarray) -> Tuple[np.ndarray, np.ndarray, tuple]:
        """``(left rows, right rows, threshold record)``; rows index the node's."""
        raise NotImplementedError

    def _check_dimension(self, query: DisjunctiveQuery) -> None:
        if query.dimension != self.vectors.shape[1]:
            raise ValueError(
                f"query dimension {query.dimension} != index dimension "
                f"{self.vectors.shape[1]}"
            )


def _as_database(vectors: np.ndarray) -> np.ndarray:
    """A C-contiguous float64 view, so leaf scoring hands the compiled
    kernels scan-ready rows."""
    vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=float)
    if vectors.shape[0] == 0:
        raise ValueError("cannot index an empty database")
    return vectors


class HybridTree(_FlatTree):
    """Median-split bucket tree with best-first multipoint k-NN.

    Args:
        vectors: ``(n, p)`` database matrix.
        node_size_bytes: leaf capacity is derived from this (paper: 4 KB).
        leaf_capacity: explicit override of the derived capacity.

    ``low`` / ``high`` are the ``(n_nodes, p)`` bounding boxes.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        node_size_bytes: int = 4096,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        vectors = _as_database(vectors)
        if leaf_capacity is None:
            leaf_capacity = page_capacity_for(vectors.shape[1], node_size_bytes)
        super().__init__(vectors, leaf_capacity)
        del self._splits  # the half split records nothing
        # Boxes fold up from the leaves (children follow their parent in
        # pre-order); min/max are exact, so every box equals the one of
        # the node's own rows.
        self.low = np.empty((self.n_nodes, vectors.shape[1]))
        self.high = np.empty_like(self.low)
        nodes = list(zip(range(self.n_nodes), *self._links))
        for node, left, right, start, stop in reversed(nodes):
            if left < 0:
                members = vectors[self.rows[start:stop]]
                self.low[node] = members.min(axis=0)
                self.high[node] = members.max(axis=0)
            else:
                np.minimum(self.low[left], self.low[right], out=self.low[node])
                np.maximum(self.high[left], self.high[right], out=self.high[node])

    def _project(self, subset: np.ndarray) -> Tuple[np.ndarray, tuple]:
        axis = int(np.argmax(subset.max(axis=0) - subset.min(axis=0)))
        return subset[:, axis], ()

    def _cut(self, projections: np.ndarray) -> Tuple[np.ndarray, np.ndarray, tuple]:
        order = np.argsort(projections, kind="stable")
        half = projections.shape[0] // 2
        return order[:half], order[half:], ()

    def node_bounds(self, query: DisjunctiveQuery) -> np.ndarray:
        """Every node's aggregate distance lower bound, ``(n_nodes,)``.

        Diagonal inverses get the exact per-axis bound and full matrices
        the smallest-eigenvalue bound, eigenvalues coming from the
        compiled kernel layer once per cluster state.
        """
        infos = ensure_compiled(query).bound_infos()
        per_point = np.empty((len(infos), self.n_nodes))
        for position, (center, diagonal, lambda_min) in enumerate(infos):
            delta = np.maximum(np.maximum(self.low - center, center - self.high), 0.0)
            if diagonal is not None:
                per_point[position] = np.sum(diagonal * delta**2, axis=1)
            else:
                per_point[position] = lambda_min * np.sum(delta**2, axis=1)
        return query.lower_bound_from_center_distance(per_point)

    def knn(
        self,
        query: DisjunctiveQuery,
        k: int,
        node_cache: Optional[Set[int]] = None,
    ) -> KnnResult:
        """Best-first exact k-NN under the query's aggregate distance.

        Args:
            query: the (multipoint) query to rank by.
            k: neighbours to return.
            node_cache: optional set of node ids already resident in
                memory from earlier iterations; accesses to them count as
                cached rather than I/O, and every node visited is added.
                This is the node-caching technique of the multipoint
                approach [7] that Figure 7 credits for Qcluster's low
                execution cost.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self._check_dimension(query)
        k = min(k, self.size)
        bounds = self.node_bounds(query).tolist()
        left, right, start, stop = self._links

        counter = itertools.count()
        frontier: List[Tuple[float, int, int]] = [(bounds[0], next(counter), 0)]
        # The best k so far under the (distance, id) order every exact
        # path shares, as a heap of (-distance, -id): the worst on top.
        best: List[Tuple[float, int]] = []
        # A node is opened while its bound does not exceed the slacked
        # k-th distance: a node bounded *at* the k-th distance can still
        # hold a tied row with a smaller id, and the bound arithmetic can
        # overshoot a distance by a few ulps.
        cut = float("inf")
        node_accesses = 0
        io_accesses = 0
        cached_accesses = 0
        distance_evaluations = 0

        while frontier:
            bound, _, node = heapq.heappop(frontier)
            if bound > cut:
                break
            fault_point(_SITE_TREE_NODE, key=str(node))
            node_accesses += 1
            if node_cache is not None and node in node_cache:
                cached_accesses += 1
            else:
                io_accesses += 1
                if node_cache is not None:
                    node_cache.add(node)
            if left[node] >= 0:
                for child in (left[node], right[node]):
                    child_bound = bounds[child]
                    if child_bound <= cut:
                        heapq.heappush(frontier, (child_bound, next(counter), child))
                continue
            candidates = self.rows[start[node] : stop[node]]
            distances = np.asarray(query.distances(self.vectors[candidates]))
            distance_evaluations += candidates.shape[0]
            for distance, index in zip(distances.tolist(), candidates.tolist()):
                entry = (-distance, -index)
                if len(best) < k:
                    heapq.heappush(best, entry)
                elif entry > best[0]:
                    heapq.heapreplace(best, entry)
                else:
                    continue
                if len(best) == k:
                    cut = prune_threshold(-best[0][0])

        ordered = sorted(best, reverse=True)
        add_event(
            "index_knn",
            node_accesses=node_accesses,
            io_accesses=io_accesses,
            cached_accesses=cached_accesses,
            refined=distance_evaluations,
        )
        return KnnResult(
            indices=np.array([-negative for _, negative in ordered], dtype=int),
            distances=np.array([-negative for negative, _ in ordered]),
            cost=SearchCost(
                node_accesses=node_accesses,
                io_accesses=io_accesses,
                cached_accesses=cached_accesses,
                distance_evaluations=distance_evaluations,
            ),
        )


@dataclass(frozen=True)
class SpillTreeConfig:
    """Build-time knobs of the ANN tier.

    Attributes:
        rule: ``"kd"`` (max-variance coordinate) or ``"rp"`` (sampled
            random directions).
        spill: fraction of each node's points shared by both children,
            in ``[0, 0.9]``; larger widens the descent buffer (higher
            recall, costlier leaves).  The default matches the
            committed recall contract (``benchmarks/baselines/ann.json``).
        leaf_capacity: descent stops at nodes of at most this many
            points; default derives from 4 KB pages like the exact tree
            but with a floor that keeps defeatist recall useful.
        max_leaves: cap on leaves reached per representative when
            buffered descents fork at in-buffer projections; 1 forces
            classic single-leaf defeatist search.
        seed: seeds both the RP directions and the recall calibration.
    """

    rule: str = "kd"
    spill: float = 0.3
    leaf_capacity: Optional[int] = None
    max_leaves: int = 12
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rule not in ("kd", "rp"):
            raise ValueError(f"rule must be 'kd' or 'rp', got {self.rule!r}")
        if not 0.0 <= self.spill <= 0.9:
            raise ValueError(f"spill must be in [0, 0.9], got {self.spill}")
        if self.leaf_capacity is not None and self.leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be at least 1, got {self.leaf_capacity}")
        if self.max_leaves < 1:
            raise ValueError(f"max_leaves must be at least 1, got {self.max_leaves}")


@dataclass(frozen=True)
class DefeatistResult:
    """Result of one defeatist multipoint search.

    Attributes:
        indices: database ids, best first (at most ``k``, fewer when
            the reached leaves held fewer candidates).
        distances: aggregate distances aligned with ``indices``.
        cost: node/candidate accounting, comparable to the exact paths.
        n_candidates: distinct rows the reached leaves contributed.
    """

    indices: np.ndarray
    distances: np.ndarray
    cost: SearchCost
    n_candidates: int


class SpillTree(_FlatTree):
    """Overlapping-split tree with defeatist multipoint search.

    Args:
        vectors: ``(n, p)`` database matrix (shared, not copied).
        config: build knobs; default is the contract configuration.

    Internal node ``i`` routes by coordinate ``axis[i]`` (``"kd"``) or,
    where ``axis[i]`` is ``-1``, by ``x @ direction[i]`` (``"rp"``);
    ``route[i]`` is the median and projections strictly between
    ``low[i]`` and ``high[i]`` fall in the buffer both children share.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        config: Optional[SpillTreeConfig] = None,
    ) -> None:
        vectors = _as_database(vectors)
        self.config = config if config is not None else SpillTreeConfig()
        leaf_capacity = self.config.leaf_capacity
        if leaf_capacity is None:
            # Defeatist search sees a bounded handful of leaves per
            # representative, so leaves are sized generously — dozens
            # of 4 KB pages rather than one, floored and capped so
            # recall is neither a coin flip (tiny leaves) nor a full
            # scan in disguise (giant ones).
            per_page = page_capacity_for(vectors.shape[1])
            leaf_capacity = max(256, min(4096, 32 * per_page))
        self._rng = np.random.default_rng(self.config.seed)
        super().__init__(vectors, leaf_capacity)
        leaf = (-1, np.zeros(vectors.shape[1]), 0.0, 0.0, 0.0)
        axis, direction, route, low, high = zip(
            *(self._splits.get(node, leaf) for node in range(self.n_nodes))
        )
        del self._splits
        self.axis = np.array(axis, dtype=np.intp)
        self.direction = np.array(direction)
        self.route, self.low, self.high = np.array(route), np.array(low), np.array(high)
        self._routing = (list(axis), list(low), list(high), list(route))
        self.calibrated_recall: float = self._calibrate()

    def _project(self, subset: np.ndarray) -> Tuple[np.ndarray, tuple]:
        if self.config.rule == "kd":
            axis = int(np.argmax(subset.var(axis=0)))
            return subset[:, axis], (axis, np.zeros(subset.shape[1]))
        best_spread = -1.0
        for _ in range(_SAMPLES_RP):
            direction = self._rng.standard_normal(subset.shape[1])
            norm = float(np.linalg.norm(direction))
            if norm == 0.0:
                continue
            direction /= norm
            projections = subset @ direction
            spread = float(projections.var())
            if spread > best_spread:
                best, best_spread, best_projections = direction, spread, projections
        return best_projections, (-1, best)

    def _cut(self, projections: np.ndarray) -> Tuple[np.ndarray, np.ndarray, tuple]:
        half_spill = self.config.spill / 2.0
        low, route, high = np.quantile(projections, [0.5 - half_spill, 0.5, 0.5 + half_spill])
        left_mask = projections <= high
        right_mask = projections >= low
        if bool(left_mask.all()) or bool(right_mask.all()):
            # Heavy ties at the median: one child would swallow the
            # whole node and the recursion would never shrink.  Fall
            # back to a spill-free even split along the projection
            # order; ties at the cut stay deterministic (stable sort).
            order = np.argsort(projections, kind="stable")
            half = projections.shape[0] // 2
            cut = float(projections[order[half]])
            return order[:half], order[half:], (cut, cut, cut)
        return left_mask, right_mask, (float(route), float(low), float(high))

    def _descend(self, point: np.ndarray, inject: bool = True) -> Tuple[List[int], int]:
        """Buffered defeatist descent: ``(reached leaves, nodes visited)``.

        Depth-first, never revisiting a node (no backtracking): at each
        internal node a projection at or below ``low`` routes left only,
        at or above ``high`` right only, and strictly inside the spill
        buffer takes *both* children — the nearer side explored first —
        until ``max_leaves`` leaves are reached.
        """
        left, right, _, _ = self._links
        axes, lows, highs, routes = self._routing
        leaves: List[int] = []
        stack = [0]
        visited = 0
        while stack and len(leaves) < self.config.max_leaves:
            node = stack.pop()
            if inject:
                fault_point(_SITE_DESCEND, key=str(node))
            visited += 1
            if left[node] < 0:
                leaves.append(node)
                continue
            if axes[node] >= 0:
                projection = float(point[axes[node]])
            else:
                projection = float(point @ self.direction[node])
            if projection <= lows[node]:
                stack.append(left[node])
            elif projection >= highs[node]:
                stack.append(right[node])
            elif projection <= routes[node]:
                stack.extend((right[node], left[node]))
            else:
                stack.extend((left[node], right[node]))
        return leaves, visited

    def _reached(self, leaves: List[int]) -> np.ndarray:
        """Membership mask over the database of the given leaves' rows."""
        _, _, start, stop = self._links
        member = np.zeros(self.size, dtype=bool)
        for leaf in leaves:
            member[self.rows[start[leaf] : stop[leaf]]] = True
        return member

    def candidates_for(self, query: DisjunctiveQuery) -> Tuple[np.ndarray, int]:
        """Union of leaf candidates over the query's representatives.

        Returns ``(sorted database row ids, nodes visited)`` — sorted so
        downstream scoring is independent of representative order.
        """
        self._check_dimension(query)
        visited = 0
        leaves: List[int] = []
        for query_point in query.points:
            reached, steps = self._descend(np.asarray(query_point.center, dtype=float))
            visited += steps
            leaves.extend(reached)
        return np.flatnonzero(self._reached(leaves)), visited

    def defeatist_search(self, query: DisjunctiveQuery, k: int) -> DefeatistResult:
        """Top-``k`` over the reached leaves only — no backtracking.

        A bounded descent per query representative gathers the
        candidate union; exact aggregate distances over those rows come
        from the query's compiled kernels and are ranked under the
        shared ``(distance, id)`` tie-break.  May return fewer than
        ``k`` rows when the reached leaves held fewer candidates.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        ensure_compiled(query)
        candidates, visited = self.candidates_for(query)
        distances = query.distances(self.vectors[candidates])
        order = exact_top_k(distances, min(k, candidates.shape[0]), tie_break=candidates)
        n_candidates = int(candidates.shape[0])
        add_event(
            "ann_search", node_accesses=visited, candidates=n_candidates, database=self.size
        )
        return DefeatistResult(
            indices=candidates[order],
            distances=distances[order],
            cost=SearchCost(
                node_accesses=visited,
                io_accesses=visited,
                cached_accesses=0,
                distance_evaluations=n_candidates,
                candidates_pruned=self.size - n_candidates,
            ),
            n_candidates=n_candidates,
        )

    def _calibrate(self) -> float:
        """Measured recall@k of defeatist descent on sampled rows.

        Seeded and deterministic: each sampled database row runs the
        single-point descent (without firing the fault site), and the
        share of its exact Euclidean ``_CALIBRATION_K`` neighbours in
        the reached leaves is averaged.  Single-point probes are a proxy
        for the production disjunctive queries — each representative
        descends independently, so per-point recall is what composes;
        the contract over real feedback workloads lives in the
        benchmark suite.
        """
        rng = np.random.default_rng(self.config.seed + 1)
        sample = rng.choice(self.size, size=min(_CALIBRATION_QUERIES, self.size), replace=False)
        k = min(_CALIBRATION_K, self.size)
        recalls: List[float] = []
        for row in sample:
            point = self.vectors[int(row)]
            leaves, _ = self._descend(point, inject=False)
            true_top = exact_top_k(np.sum((self.vectors - point) ** 2, axis=1), k)
            recalls.append(int(np.count_nonzero(self._reached(leaves)[true_top])) / k)
        return float(np.mean(recalls))

    def stats(self) -> dict:
        """Shape summary: nodes, leaves, depth-free size profile."""
        sizes = self.leaf_sizes()
        return {
            "rule": self.config.rule,
            "spill": self.config.spill,
            "max_leaves": self.config.max_leaves,
            "n_nodes": self.n_nodes,
            "n_leaves": len(sizes),
            "leaf_capacity": self.leaf_capacity,
            "mean_leaf_size": float(np.mean(sizes)),
            "max_leaf_size": max(sizes),
            "calibrated_recall": self.calibrated_recall,
        }
