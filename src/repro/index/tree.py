"""The array-backed hybrid tree: the exact index and the ANN tier.

The paper indexes feature vectors with the hybrid tree of Chakrabarti &
Mehrotra, a disk-based index with 4 KB nodes and best-first k-NN.  What
the reproduction needs is page-sized leaf buckets, node regions that
yield *lower bounds* on any (quadratic/aggregate) distance, and
countable node accesses for the Figure 7 cost comparison.  A bucketed
kd tree has all three; the hybrid tree's own split machinery affects
constants, not the shape of any reported result.

Node ids are assigned in pre-order (root 0); node ``i`` has children
``left[i]`` / ``right[i]`` (``-1`` on a leaf) and owns
``rows[start[i]:stop[i]]`` of one permuted row array — for an internal
node, its leaves' rows concatenated.  A node of at most
``leaf_capacity`` rows is a leaf; otherwise it splits stably in half
on its widest-spread axis, and a zero spread (duplicate rows, a
constant subset) keeps an oversized leaf.  Every node carries a
bounding box.  For a box and a quadratic form ``A``, the form at the
box's nearest point ``x*`` satisfies ``(x*-c)'A(x*-c) >= lambda_min(A)
||x*-c||^2``, and for diagonal ``A`` the per-axis bound ``sum_j A_jj
delta_j^2`` is exact; the aggregate is monotone in each per-cluster
distance, so the per-cluster bounds combine into an aggregate one.

Two searches read the same tree.  :meth:`HybridTree.knn` is the exact
search: one vectorised bound pass and leaves scored in bound order in a
few kernel calls.  A row's distance depends on the row alone (see
docs/PERFORMANCE.md, "Numerical contract"), so a row scored in a chunk
has the bits a node-by-node read gives it, and the search opens,
counts and returns what a best-first search would.
:meth:`HybridTree.approximate_knn` is the ANN tier: it scores the rows
of the lowest-bound leaves up to a row budget the tree measures once
(:meth:`HybridTree.calibrate`) and ranks them exactly, so the *only*
approximation is which rows are scored.  The service stamps the
calibrated mean recall on every page of that tier; the contract over
served feedback queries is measured by ``benchmarks/test_ann_recall.py``
and enforced by ``compare_bench.py --suite ann``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Set

import numpy as np

from ..core.distance import DisjunctiveQuery
from ..core.kernels import _DIAGONAL_TILE_ELEMENTS, ensure_compiled
from ..core.progressive import exact_top_k, prune_threshold
from ..faults import fault_point, faults_active, register_site
from ..obs import add_event
from .linear import KnnResult, SearchCost, page_capacity_for

__all__ = ["HybridTree"]

#: Chaos-injection site: fires on every node access of a tree search,
#: keyed by node id — an error here aborts the search like a bad page
#: read would, which the service absorbs by falling back to the exact
#: sharded scan (identical results, recorded degradation).
_SITE_TREE_NODE = register_site("tree.node", "index node read during a tree search")

#: Chaos-injection site: fires on every leaf an approximate search
#: reads, keyed by node id — an error aborts the ANN search like a bad
#: page read would, which the service absorbs by re-serving the request
#: through the exact scan (page stamped ``ann_fallback``).
_SITE_DESCEND = register_site(
    "index.descend", "leaf read during an approximate (row-budgeted) tree search"
)

#: Database rows probed, and Euclidean neighbours checked per probe (the
#: served page size), when the tree calibrates its row budget; the
#: budget is the smallest that reaches ``_CALIBRATION_TARGET`` of them.
_CALIBRATION_QUERIES = 32
_CALIBRATION_K = 20
_CALIBRATION_TARGET = 0.97
_CALIBRATION_SEED = 1


def _box_gaps(low: np.ndarray, high: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Per-axis distance from ``point`` to each box, ``(boxes, p)``."""
    gaps = low - point
    np.maximum(gaps, point - high, out=gaps)
    return np.maximum(gaps, 0.0, out=gaps)


def _runs(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The ranges ``starts[i] : starts[i] + sizes[i]``, concatenated."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - ends + sizes, sizes) + np.arange(ends[-1])


class HybridTree:
    """Median-split bucket tree with exact and row-budgeted k-NN.

    Args:
        vectors: ``(n, p)`` database matrix.
        node_size_bytes: leaf capacity is derived from this (paper: 4 KB).
        leaf_capacity: explicit override of the derived capacity.

    ``low`` / ``high`` are the ``(n_nodes, p)`` bounding boxes.
    ``row_budget`` and ``calibrated_recall`` stay ``None`` until
    :meth:`calibrate` runs.
    """

    def __init__(
        self,
        vectors: np.ndarray,
        node_size_bytes: int = 4096,
        leaf_capacity: Optional[int] = None,
    ) -> None:
        # C-contiguous float64, so leaf scoring hands the compiled
        # kernels scan-ready rows.
        vectors = np.ascontiguousarray(np.atleast_2d(vectors), dtype=float)
        if vectors.shape[0] == 0:
            raise ValueError("cannot index an empty database")
        if leaf_capacity is None:
            leaf_capacity = page_capacity_for(vectors.shape[1], node_size_bytes)
        if leaf_capacity < 1:
            raise ValueError(f"leaf_capacity must be at least 1, got {leaf_capacity}")
        self.vectors = vectors
        self.leaf_capacity = leaf_capacity
        self._table: List[List[int]] = []  # [left, right, start, stop] per node
        self._chunks: List[np.ndarray] = []
        self._grow(np.arange(vectors.shape[0]), 0)
        links = tuple(map(list, zip(*self._table)))
        self.left, self.right, self.start, self.stop = (
            np.array(column, dtype=np.intp) for column in links
        )
        self.rows = np.concatenate(self._chunks)
        del self._table, self._chunks
        # Boxes fold up from the leaves (children follow their parent in
        # pre-order); min/max are exact, so every box equals the one of
        # the node's own rows.
        self.low = np.empty((self.n_nodes, vectors.shape[1]))
        self.high = np.empty_like(self.low)
        nodes = list(zip(range(self.n_nodes), *links))
        for node, left, right, start, stop in reversed(nodes):
            if left < 0:
                members = vectors[self.rows[start:stop]]
                self.low[node] = members.min(axis=0)
                self.high[node] = members.max(axis=0)
            else:
                np.minimum(self.low[left], self.low[right], out=self.low[node])
                np.maximum(self.high[left], self.high[right], out=self.high[node])
        # The leaves in pre-order, which is also row order in ``rows``.
        self.leaves = np.flatnonzero(self.left < 0)
        self._leaf_low = self.low[self.leaves]
        self._leaf_high = self.high[self.leaves]
        self._leaf_sizes = self.stop[self.leaves] - self.start[self.leaves]
        self._smallest_leaf = int(self._leaf_sizes.min())
        self.row_budget: Optional[int] = None
        self.calibrated_recall: Optional[float] = None
        self._ordered: Optional[np.ndarray] = None

    @property
    def size(self) -> int:
        """Number of indexed vectors."""
        return self.vectors.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.left.shape[0]

    def leaf_sizes(self) -> List[int]:
        """Sizes of every leaf in node order (diagnostics and tests)."""
        return self._leaf_sizes.tolist()

    def _grow(self, indices: np.ndarray, start: int) -> int:
        node = len(self._table)
        entry = [-1, -1, start, start + indices.shape[0]]
        self._table.append(entry)
        if indices.shape[0] > self.leaf_capacity:
            subset = self.vectors[indices]
            spreads = subset.max(axis=0) - subset.min(axis=0)
            axis = int(np.argmax(spreads))
            if spreads[axis] != 0.0:
                order = np.argsort(subset[:, axis], kind="stable")
                half = indices.shape[0] // 2
                entry[0] = self._grow(indices[order[:half]], start)
                entry[1] = self._grow(indices[order[half:]], start + half)
                return node
            # Zero spread on the widest axis: no split can separate
            # anything — an oversized leaf, not endless recursion.
        self._chunks.append(indices)
        return node

    def _check_dimension(self, query: DisjunctiveQuery) -> None:
        if query.dimension != self.vectors.shape[1]:
            raise ValueError(
                f"query dimension {query.dimension} != index dimension "
                f"{self.vectors.shape[1]}"
            )

    def node_bounds(self, query: DisjunctiveQuery) -> np.ndarray:
        """Every node's aggregate distance lower bound, ``(n_nodes,)``.

        Diagonal inverses get the exact per-axis bound and full matrices
        the smallest-eigenvalue bound, eigenvalues coming from the
        compiled kernel layer once per cluster state.
        """
        return self._box_bounds(query, self.low, self.high)

    @staticmethod
    def _box_bounds(
        query: DisjunctiveQuery, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        infos = ensure_compiled(query).bound_infos()
        per_point = np.empty((len(infos), low.shape[0]))
        for position, (center, diagonal, lambda_min) in enumerate(infos):
            squares = _box_gaps(low, high, center)
            np.square(squares, out=squares)
            if diagonal is not None:
                squares *= diagonal
                per_point[position] = squares.sum(axis=1)
            else:
                per_point[position] = lambda_min * squares.sum(axis=1)
        return query.combine_per_cluster(per_point)

    def knn(
        self,
        query: DisjunctiveQuery,
        k: int,
        node_cache: Optional[Set[int]] = None,
    ) -> KnnResult:
        """Exact k-NN under the query's aggregate distance.

        Leaves are scored in (bound, leaf order), one kernel call per chunk
        of 8, 16, ... leaves (at most one diagonal tile of rows), while their
        bound is within the slacked k-th distance; a row scores the same
        bits in a chunk as in its own leaf.  The nodes opened are those
        bounded within the slacked k-th distance: no child's bound is
        below its parent's, so best-first opens the same.

        Args:
            query: the (multipoint) query to rank by.
            k: neighbours to return.
            node_cache: optional set of node ids already resident in
                memory from earlier iterations; accesses to them count as
                cached rather than I/O, and every node opened is added
                (unless a ``tree.node`` fault aborts the search).  This
                is the node-caching technique of the multipoint approach
                [7] that Figure 7 credits for Qcluster's low execution
                cost.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self._check_dimension(query)
        k = min(k, self.size)
        bounds = self.node_bounds(query)
        leaf_starts = self.start[self.leaves]
        order = np.argsort(bounds[self.leaves], kind="stable")
        sorted_bounds, sizes = bounds[self.leaves][order], self._leaf_sizes[order]
        read = np.cumsum(sizes)
        tile_rows = max(1, _DIAGONAL_TILE_ELEMENTS // self.vectors.shape[1])
        # Positions in ``rows`` still in the running, and their distances.
        held, scored = np.empty(0, dtype=np.intp), np.empty(0)
        kth, position, width = math.inf, 0, 8
        while True:
            reach = np.searchsorted(sorted_bounds, prune_threshold(kth), "right")
            if position >= reach:
                break
            capped = np.searchsorted(read, read[position] - sizes[position] + tile_rows, "right")
            stop = max(position + 1, min(position + width, int(reach), int(capped)))
            chunk = order[position:stop]
            positions = _runs(leaf_starts[chunk], self._leaf_sizes[chunk])
            distances = query.distances(np.take(self.vectors, self.rows[positions], axis=0))
            held = np.concatenate((held, positions))
            scored = np.concatenate((scored, distances))
            if scored.shape[0] >= k:
                kth = float(np.partition(scored, k - 1)[k - 1])
                keep = scored <= prune_threshold(kth)
                held, scored = held[keep], scored[keep]
            position, width = stop, 2 * width

        ids = self.rows[held]
        top = exact_top_k(scored, k, tie_break=ids)
        # Open up to the slacked k-th distance: a node bounded *at* it can hold
        # a tied row with a smaller id, and a bound can overshoot by a few ulps.
        cut = prune_threshold(kth)
        opened = np.flatnonzero(bounds <= cut)
        opened_ids = opened.tolist()
        if faults_active():
            for node in opened_ids:
                fault_point(_SITE_TREE_NODE, key=str(node))
        cached = 0 if node_cache is None else len(node_cache.intersection(opened_ids))
        if node_cache is not None:
            node_cache.update(opened_ids)
        opened_leaves = opened[self.left[opened] < 0]
        cost = SearchCost(
            node_accesses=opened.shape[0],
            io_accesses=opened.shape[0] - cached,
            cached_accesses=cached,
            distance_evaluations=int((self.stop[opened_leaves] - self.start[opened_leaves]).sum()),
        )
        add_event(
            "index_knn",
            node_accesses=cost.node_accesses,
            io_accesses=cost.io_accesses,
            cached_accesses=cost.cached_accesses,
            refined=cost.distance_evaluations,
        )
        return KnnResult(indices=ids[top], distances=scored[top], cost=cost)

    def calibrate(self) -> None:
        """Measure the approximate search's row budget (once; idempotent).

        Seeded and deterministic: ``_CALIBRATION_QUERIES`` database rows
        each rank the leaves by their Euclidean box bound, and each of
        a probe's ``_CALIBRATION_K`` exact Euclidean neighbours needs
        the rows read up to and including its leaf.  The budget is the
        smallest of those row counts that reaches ``_CALIBRATION_TARGET``
        of all the neighbours — a count some probe actually reads, so a
        one-leaf tree gets every row — and :attr:`calibrated_recall` is
        the share the search then reaches under its own stopping rule.
        Single-point probes are a proxy for the served disjunctive
        queries; the contract over real feedback queries lives in the
        benchmark suite.  No fault site fires here.
        """
        if self._ordered is not None:
            return
        n, n_leaves = self.size, self.leaves.shape[0]
        leaf_of = np.empty(n, dtype=np.intp)
        leaf_of[self.rows] = np.repeat(np.arange(n_leaves), self._leaf_sizes)
        rng = np.random.default_rng(_CALIBRATION_SEED)
        probes = rng.choice(n, size=min(_CALIBRATION_QUERIES, n), replace=False)
        k = min(_CALIBRATION_K, n)
        through, before = [], []
        for row in probes.tolist():
            point = self.vectors[row]
            gaps = _box_gaps(self._leaf_low, self._leaf_high, point)
            order = np.argsort(np.einsum("ij,ij->i", gaps, gaps), kind="stable")
            rank = np.empty(n_leaves, dtype=np.intp)
            rank[order] = np.arange(n_leaves)
            read = np.cumsum(self._leaf_sizes[order])
            offsets = (self.vectors - point) ** 2
            neighbours = exact_top_k(offsets.sum(axis=1), k)
            at = rank[leaf_of[neighbours]]
            through.append(read[at])
            before.append(read[at] - self._leaf_sizes[order][at])
        needed, already = np.concatenate(through), np.concatenate(before)
        count = math.ceil(round(_CALIBRATION_TARGET * needed.shape[0], 9))
        budget = int(np.sort(needed)[count - 1])
        self.calibrated_recall = float(np.count_nonzero(already < budget) / needed.shape[0])
        self.row_budget = budget
        self._ordered = self.vectors[self.rows]

    def approximate_knn(self, query: DisjunctiveQuery, k: int) -> KnnResult:
        """Top-``k`` over the rows of the lowest-bound leaves only.

        One vectorised pass bounds every leaf box; leaves are read in
        bound order (ties by leaf order) up to and including the first
        that brings the rows read to the calibrated :attr:`row_budget`.
        Their rows are scored in one call to the query's compiled
        kernels and ranked under the shared ``(distance, id)``
        tie-break, so the page equals the exact top-``k`` over exactly
        the rows read; a budget of every row is the exact scan.
        """
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self._check_dimension(query)
        self.calibrate()
        ordered, row_budget = self._ordered, self.row_budget
        assert ordered is not None and row_budget is not None  # set by calibrate()
        bounds = self._box_bounds(query, self._leaf_low, self._leaf_high)
        # Only a prefix of the bound order is read, and no prefix of
        # ``ceil(budget / smallest leaf)`` leaves falls short of the
        # budget: select that many under (bound, leaf order) and stop
        # inside them.
        order = exact_top_k(bounds, -(-row_budget // self._smallest_leaf))
        read = np.cumsum(self._leaf_sizes[order])
        n_read = min(int(np.searchsorted(read, row_budget)) + 1, order.shape[0])
        chosen = order[:n_read]
        if faults_active():
            for leaf in self.leaves[chosen].tolist():
                fault_point(_SITE_DESCEND, key=str(leaf))
        positions = _runs(self.start[self.leaves[chosen]], self._leaf_sizes[chosen])
        n_rows = positions.shape[0]
        candidates = self.rows[positions]
        distances = query.distances(np.take(ordered, positions, axis=0))
        top = exact_top_k(distances, min(k, n_rows), tie_break=candidates)
        add_event("ann_search", node_accesses=n_read, candidates=n_rows, database=self.size)
        return KnnResult(
            indices=candidates[top],
            distances=distances[top],
            cost=SearchCost(
                node_accesses=n_read,
                io_accesses=n_read,
                cached_accesses=0,
                distance_evaluations=n_rows,
                candidates_pruned=self.size - n_rows,
            ),
        )

    def stats(self) -> dict:
        """Shape and calibration summary (the service's ``ann`` snapshot)."""
        return {
            "n_nodes": self.n_nodes,
            "n_leaves": int(self.leaves.shape[0]),
            "leaf_capacity": self.leaf_capacity,
            "row_budget": self.row_budget,
            "calibrated_recall": self.calibrated_recall,
        }
