"""Progressive filter-and-refine scanning: exact top-k, fraction of the work.

The paper's Theorem 1 (Section 4.4) shows the quadratic measures are
invariant under linear transforms, which the kernel layer already uses
to factor ``S⁻¹ = L L'`` once per cluster.  This module pushes the same
idea one step further, in the style of GEMINI filter-and-refine
(Faloutsos et al.) and VA-file scans (Weber et al.): in a whitened,
variance-ordered basis the per-cluster distance is a plain sum of
squared coordinates,

    d²(x) = Σ_j y_j²,   y = (x − c) T,

so the partial sum over any *prefix* of the coordinates is a monotone
**lower bound** on the true distance.  Equation 5's disjunctive
aggregate (the weighted harmonic mean, the α = −2 fuzzy OR) is monotone
increasing in every per-cluster distance, so per-cluster prefix bounds
combine into a valid aggregate lower bound.  A scan can therefore

1. score every candidate on the first ``t ≪ p`` coordinates (the
   *filter* phase — an O(N·p·t/p) fraction of the full arithmetic),
2. maintain a running k-th-best threshold over exactly-refined
   candidates, and
3. *refine* (evaluate exactly) only the candidates whose lower bound
   does not already exceed the threshold, in blocks ordered by bound.

Exactness contract: the refine phase evaluates survivors through the
query's own ``distances()`` (the compiled kernels, in which a row's
distance depends on the row alone, so a refine chunk scores each row
with its full-scan bits), and a candidate
is pruned only when its lower bound exceeds the threshold by a small
relative-plus-absolute slack.  The returned top-k is therefore
**byte-identical** to the naive full scan under the shared
deterministic ``(distance, index)`` ordering of :func:`exact_top_k` —
the prefix transforms influence *cost only*, never a ranking.

Coordinate ordering: the whitened axes are ordered by the *observed*
per-coordinate mass of a small strided sample of the database (largest
first), so the earliest coordinates discriminate the most.  Ordering,
like everything else in the filter phase, affects only how much gets
pruned — a bad order degrades gracefully to refining everything.

:func:`use_progressive` switches the layer off (every consumer then
falls back to its classic full scan), mirroring ``use_kernels``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import add_event, current_tracer
from . import kernels as _kernels
from .kernels import _GEMM_ROWS, CholeskyKernel, CompiledQuery, DiagonalKernel, ensure_compiled

__all__ = [
    "exact_top_k",
    "prune_threshold",
    "default_schedule",
    "ProgressivePlan",
    "ScanStats",
    "ProgressiveResult",
    "plan_for",
    "progressive_topk",
    "progressive_topk_batch",
    "progressive_enabled",
    "progressive_min_rows",
    "use_progressive",
]

_ENABLED = True

#: Below this many candidate rows a full scan is cheaper than the
#: filter bookkeeping (and tiny scans are dominated by call overhead).
_MIN_ROWS = 2048

#: Below this dimensionality a prefix keeps almost all coordinates, so
#: the filter phase saves nothing.
_MIN_DIMENSION = 16

#: Pruning slack: a candidate is discarded only when its lower bound
#: exceeds ``tau * (1 + _RELATIVE_SLACK) + _ABSOLUTE_SLACK``.  The
#: bound arithmetic (the expanded ``x·T − c·T`` in a whitened basis)
#: differs from the exact kernels, so bounds can overshoot true
#: distances by a few ulps;
#: the slack keeps such overshoot from ever pruning a true neighbour.
_RELATIVE_SLACK = 1e-9
_ABSOLUTE_SLACK = 1e-12

#: Attribute memoizing the plan (or its absence) on a compiled query.
_PLAN_ATTRIBUTE = "_prefix_plan"

#: Rows sampled (strided) to estimate per-coordinate mass for ordering.
_SAMPLE_ROWS = 256

#: Per-plan cap on cached per-database coordinate orders (each shard of
#: a sharded scan keys its own).
_MAX_ORDERS = 8

#: Rows per filter tile: the float64 copy of a tile and its prefix
#: product stay cache-sized, and both buffers are reused across tiles.
#: At one GEMM height a tile's product stays on OpenBLAS's fast
#: small-matrix path (under about 10⁶ multiply-adds) for up to 40
#: stacked columns; four GEMM heights made a 50k-row level-0 pass at
#: 20 columns 1.6× slower.
_TILE_ROWS = _GEMM_ROWS

_UNSET = object()


def exact_top_k(
    distances: np.ndarray, k: int, tie_break: Optional[np.ndarray] = None
) -> np.ndarray:
    """Positions of the ``k`` smallest distances, deterministically.

    Selection *and* order follow the total order ``(distance, key)``
    where ``key`` is the position itself (or ``tie_break[position]``,
    e.g. a global row id when ``distances`` covers a candidate subset).
    Unlike a bare ``argpartition`` the result is independent of array
    layout under exact ties, which is what lets the progressive scan —
    which never even computes most distances — reproduce the reference
    ordering bit for bit.  O(N + c log c) with ``c`` the cut size
    (``k`` plus any boundary ties).
    """
    distances = np.asarray(distances)
    n = distances.shape[0]
    k = min(k, n)
    if k <= 0:
        return np.empty(0, dtype=np.intp)
    if k >= n:
        cut = np.arange(n, dtype=np.intp)
    else:
        kth = np.partition(distances, k - 1)[k - 1]
        cut = np.nonzero(distances <= kth)[0]
    keys = cut if tie_break is None else np.asarray(tie_break)[cut]
    order = cut[np.lexsort((keys, distances[cut]))]
    return order[:k]


def prune_threshold(value: float) -> float:
    """A cut just above ``value``: prune only bounds strictly beyond it.

    Lower bounds are computed in the expanded whitened form, not by the
    exact kernels, so a bound can exceed the distance it bounds by a
    few ulps of float error; comparing bounds against this slacked
    threshold instead of ``value`` itself keeps that error from ever
    pruning a true neighbour.
    """
    return value * (1.0 + _RELATIVE_SLACK) + _ABSOLUTE_SLACK


def default_schedule(dimension: int) -> Tuple[int, ...]:
    """The prefix schedule ``t ∈ {p/8, p/4, p}`` (deduplicated, sorted)."""
    if dimension < 1:
        raise ValueError(f"dimension must be at least 1, got {dimension}")
    return tuple(
        sorted({max(1, dimension // 8), max(1, dimension // 4), dimension})
    )


# ----------------------------------------------------------------------
# Per-cluster prefix evaluators
# ----------------------------------------------------------------------


class _DiagonalPrefix:
    """Coordinate-prefix lower bounds for a diagonal ``S⁻¹ = diag(w)``.

    ``diag(w)`` is the whitening ``T = diag(√w)``: column ``j`` of ``T``
    is the unit vector ``e_j`` scaled by ``√w_j``, so the diagonal
    cluster's prefix columns join the same stacked GEMM as the
    eigen-whitened ones.  Only ``√w`` is stored; the columns a prefix
    range needs are built when it is scanned.
    """

    def __init__(self, kernel: DiagonalKernel) -> None:
        self.center = kernel.center
        self.scales = np.sqrt(np.maximum(kernel.diagonal, 0.0))

    def columns(self, coordinates: np.ndarray) -> np.ndarray:
        """The ``(p, len(coordinates))`` columns of ``T`` in that order."""
        out = np.zeros((self.center.shape[0], coordinates.shape[0]))
        out[coordinates, np.arange(coordinates.shape[0])] = self.scales[coordinates]
        return out

    def data_order(self, sample: np.ndarray) -> np.ndarray:
        whitened = (sample - self.center) * self.scales
        mass = np.mean(whitened * whitened, axis=0)
        return np.argsort(-mass, kind="stable")


class _WhitenedPrefix:
    """Eigen-whitened prefix lower bounds for a full PSD ``S⁻¹``.

    ``S⁻¹ = V Λ V'`` gives the whitening transform ``T = V √Λ`` with
    columns ordered by eigenvalue (largest first); then
    ``d²(x) = ‖(x − c) T‖²`` and every column subset lower-bounds it.
    Used for *bounds only* — the exact path stays with the Cholesky
    kernels, so bound arithmetic can never perturb a ranking.
    """

    def __init__(self, kernel: CholeskyKernel) -> None:
        self.center = kernel.center
        eigenvalues, eigenvectors = np.linalg.eigh(kernel.inverse)
        order = np.argsort(-eigenvalues, kind="stable")
        eigenvalues = np.maximum(eigenvalues[order], 0.0)
        self.transform = np.ascontiguousarray(
            eigenvectors[:, order] * np.sqrt(eigenvalues)
        )

    def columns(self, coordinates: np.ndarray) -> np.ndarray:
        """The ``(p, len(coordinates))`` columns of ``T`` in that order."""
        return self.transform[:, coordinates]

    def data_order(self, sample: np.ndarray) -> np.ndarray:
        transformed = (sample - self.center) @ self.transform
        mass = np.mean(transformed * transformed, axis=0)
        return np.argsort(-mass, kind="stable")


def _prefix_sums(
    vectors: np.ndarray,
    shift: np.ndarray,
    stacked: np.ndarray,
    offsets: np.ndarray,
    width: int,
    index: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sums of squared whitened coordinates, ``width`` columns a group.

    Computes ``y = (x − shift)·stacked − offsets`` for every row ``x``
    of ``vectors`` (or of ``vectors[index]``) and returns the
    ``(groups, N)`` sums of ``y²`` over each run of ``width`` consecutive
    columns — one group per cluster.  Rows go through in tiles of at
    most ``_TILE_ROWS``: each tile is copied to float64 once and centred
    in place, multiplied by the whole stacked operand in one GEMM, and
    its groups are summed by in-order column adds, all in buffers
    reused across tiles.  The expanded ``x·T − c·T`` form perturbs a
    bound by float cancellation noise only, kept small by the shared
    ``shift`` (a point near the clusters), and bounds feed pruning
    decisions through the slacked threshold, never a returned distance.
    """
    n = vectors.shape[0] if index is None else index.shape[0]
    groups = stacked.shape[1] // width
    out = np.empty((groups, n))
    tile = min(n, _TILE_ROWS)
    centered = np.empty((tile, stacked.shape[0]))
    product = np.empty((tile, stacked.shape[1]))
    sums = np.empty((tile, groups))
    # Flat, pre-tiled operands: a same-shape subtract over the whole
    # tile instead of a per-row broadcast.
    tiled_shift = np.tile(shift, tile)
    tiled_offsets = np.tile(offsets, tile)
    for start in range(0, n, tile):
        stop = min(start + tile, n)
        height = stop - start
        rows = centered[:height]
        rows[...] = vectors[start:stop] if index is None else vectors[index[start:stop]]
        flat = rows.reshape(-1)
        flat -= tiled_shift[: flat.shape[0]]
        block = product[:height]
        np.matmul(rows, stacked, out=block)
        flat = block.reshape(-1)
        flat -= tiled_offsets[: flat.shape[0]]
        np.multiply(flat, flat, out=flat)
        terms = block.reshape(height, groups, width)
        total = sums[:height]
        np.copyto(total, terms[:, :, 0])
        for column in range(1, width):
            total += terms[:, :, column]
        out[:, start:stop] = total.T
    return out


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


class ProgressivePlan:
    """Per-cluster prefix evaluators plus the dimension schedule.

    Built once per compiled query (memoized alongside the kernels) so
    the eigen-decompositions are paid once per cluster state — shared
    across feedback rounds, shards and sessions exactly like the
    kernels themselves.  A filter level stacks every cluster's columns
    for its coordinate range into one ``(p, g·w)`` operand, so it is a
    single GEMM per row tile whatever mix of diagonal and whitened
    clusters the query holds.
    """

    def __init__(self, compiled: CompiledQuery) -> None:
        self.dimension = compiled.dimension
        self.schedule = default_schedule(self.dimension)
        prefixes: List[object] = []
        for kernel in compiled.kernels:
            if isinstance(kernel, DiagonalKernel):
                prefixes.append(_DiagonalPrefix(kernel))
            elif isinstance(kernel, CholeskyKernel):
                prefixes.append(_WhitenedPrefix(kernel))
            else:  # pragma: no cover - plan_for filters these out
                raise TypeError(f"no prefix evaluator for {kernel!r}")
        self.prefixes = prefixes
        #: The point filter tiles are centred on (the mean of the cluster
        #: centres, as in the fused whitening kernel): it keeps the
        #: cancellation of ``x·T − c·T`` to the data's spread around the
        #: clusters, not its distance from the origin.
        self.shift = np.mean([prefix.center for prefix in prefixes], axis=0)
        self._orders_lock = threading.Lock()
        self._orders: "OrderedDict[Tuple[int, int], List[np.ndarray]]" = OrderedDict()

    @property
    def size(self) -> int:
        """Number of clusters."""
        return len(self.prefixes)

    def operands(self, vectors: np.ndarray, lo: int, hi: int, shift: np.ndarray):
        """``(stacked, offsets)`` of coordinates ``[lo, hi)`` over ``vectors``.

        ``stacked`` holds every cluster's columns of ``T`` for that range
        of its :meth:`orders`, side by side; ``offsets`` the matching
        ``(c_i − shift)·T_i``.
        """
        columns = [
            prefix.columns(order[lo:hi])
            for prefix, order in zip(self.prefixes, self.orders(vectors))
        ]
        offsets = [(prefix.center - shift) @ cols for prefix, cols in zip(self.prefixes, columns)]
        return np.concatenate(columns, axis=1), np.concatenate(offsets)

    def prefix_distances(
        self, vectors: np.ndarray, lo: int, hi: int, index: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """``(g, N)`` partial distances over coordinates ``[lo, hi)``.

        Additive across disjoint ranges, for every cluster kind.  Scores
        ``vectors[index]`` when ``index`` is given, tile by tile.
        """
        stacked, offsets = self.operands(vectors, lo, hi, self.shift)
        return _prefix_sums(vectors, self.shift, stacked, offsets, hi - lo, index)

    def orders(self, vectors: np.ndarray) -> List[np.ndarray]:
        """Data-aware coordinate orders for this database (or shard).

        Orders each cluster's coordinates by the mass ``E[y_j²]`` observed
        on a strided sample of ``vectors`` (largest first), so the first
        prefix soaks up as much of the true distance as this database
        allows.  Cached by array identity: each shard of a sharded scan
        gets its own.  Orders affect pruning power only — any
        permutation yields valid bounds — so a stale key after an id
        reuse needs no invalidation protocol, only the LRU size cap.
        """
        n = vectors.shape[0]
        key = (id(vectors), n)
        with self._orders_lock:
            orders = self._orders.get(key)
            if orders is None:
                sample = vectors if n <= _SAMPLE_ROWS else vectors[:: n // _SAMPLE_ROWS]
                orders = [prefix.data_order(sample[:_SAMPLE_ROWS]) for prefix in self.prefixes]
                self._orders[key] = orders
                while len(self._orders) > _MAX_ORDERS:
                    self._orders.popitem(last=False)
            else:
                self._orders.move_to_end(key)
            return orders


def plan_for(compiled: CompiledQuery) -> Optional[ProgressivePlan]:
    """The compiled query's progressive plan, or ``None`` if ineligible.

    Ineligible when:

    * the dimension is too small for a useful prefix;
    * any cluster fell back to the indefinite ``MatmulKernel`` (an
      indefinite form admits no monotone coordinate-prefix bound);
    * *every* cluster is diagonal — a diagonal scan is already
      memory-bound O(N·p), and a coordinate-subset filter reads the
      same cache lines as the full scan, so filtering can only add
      cost (diagonal clusters still contribute prefix bounds inside
      mixed queries, where the whitened clusters pay for the pass).

    The answer — plan or ``None`` — is memoized on the compiled query.
    """
    plan = getattr(compiled, _PLAN_ATTRIBUTE, _UNSET)
    if plan is not _UNSET:
        return plan
    eligible = (
        compiled.dimension >= _MIN_DIMENSION
        and all(
            isinstance(kernel, (DiagonalKernel, CholeskyKernel))
            for kernel in compiled.kernels
        )
        and any(isinstance(kernel, CholeskyKernel) for kernel in compiled.kernels)
    )
    plan = ProgressivePlan(compiled) if eligible else None
    setattr(compiled, _PLAN_ATTRIBUTE, plan)
    return plan


# ----------------------------------------------------------------------
# The progressive scan
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScanStats:
    """Filter/refine accounting of one progressive scan.

    Attributes:
        filtered: candidates scored by the (cheap) filter phase.
        refined: candidates whose exact distance was computed.
        pruned: candidates discarded on lower bound alone.
        schedule: the prefix schedule used.
        survivors_per_level: candidates still alive after the filter at
            each schedule level (before block-wise refinement).
    """

    filtered: int
    refined: int
    pruned: int
    schedule: Tuple[int, ...]
    survivors_per_level: Tuple[int, ...]

    @property
    def refine_fraction(self) -> float:
        """``refined / filtered`` — 1.0 means the filter saved nothing."""
        return self.refined / self.filtered if self.filtered else 1.0


@dataclass(frozen=True)
class ProgressiveResult:
    """Exact top-k (indices sorted by ``(distance, index)``) plus stats."""

    indices: np.ndarray
    distances: np.ndarray
    stats: ScanStats


def _prepare(vectors: np.ndarray, query, k: int):
    """Eligibility gates of the progressive scan, per query.

    Returns ``(combine, plan)`` when the progressive path applies to
    this ``(vectors, query, k)`` triple, else ``None``.
    """
    if not _ENABLED or not _kernels.kernels_enabled():
        return None
    combine = getattr(query, "combine_per_cluster", None)
    if combine is None or getattr(query, "points", None) is None:
        return None
    n = vectors.shape[0]
    if n < _MIN_ROWS or k < 1 or 4 * k >= n:
        return None
    compiled = ensure_compiled(query)
    if vectors.shape[1] != compiled.dimension:
        return None
    plan = plan_for(compiled)
    if plan is None:
        return None
    if len(plan.schedule) < 2:
        return None
    return combine, plan


def _scan_from_level0(
    vectors: np.ndarray,
    query,
    combine,
    plan: ProgressivePlan,
    k: int,
    per_cluster0: np.ndarray,
) -> ProgressiveResult:
    """Seed / escalate / refine from the level-0 prefix partial sums.

    Args:
        per_cluster0: the ``(g, N)`` per-cluster partial sums over the
            schedule's first prefix ``[0, t0)``; each escalation range
            ``[t_i, t_{i+1})`` adds its increment to them.
    """
    n = vectors.shape[0]
    schedule = plan.schedule
    lower = np.asarray(combine(per_cluster0))

    # --- Seed the threshold: refine the most promising candidates, one
    # GEMM block of them — the same single kernel call as k rows, and a
    # far tighter first threshold — but at least k and, on a small scan,
    # at most an eighth of its rows.
    size = max(k, min(_GEMM_ROWS, n // 8))
    seed = np.argpartition(lower, size - 1)[:size]
    seed_distances = np.asarray(query.distances(vectors[seed]))
    top = exact_top_k(seed_distances, k, tie_break=seed)
    best_ids = seed[top]
    best_distances = seed_distances[top]
    tau = float(best_distances[-1])
    refined = int(seed.shape[0])

    refined_mask = np.zeros(n, dtype=bool)
    refined_mask[seed] = True

    alive = np.nonzero(~refined_mask & (lower <= prune_threshold(tau)))[0]
    survivors_per_level = [int(alive.shape[0])]

    # --- Escalate: tighten surviving bounds through the middle levels
    # (the last level is the exact distance, which refinement computes).
    per_cluster_alive = per_cluster0[:, alive]
    bounds = lower[alive]
    for lo, hi in zip(schedule[:-2], schedule[1:-1]):
        if alive.shape[0] == 0:
            break
        per_cluster_alive += plan.prefix_distances(vectors, lo, hi, index=alive)
        bounds = np.asarray(combine(per_cluster_alive))
        keep = bounds <= prune_threshold(tau)
        alive = alive[keep]
        per_cluster_alive = per_cluster_alive[:, keep]
        bounds = bounds[keep]
        survivors_per_level.append(int(alive.shape[0]))

    # --- Refine: exact distances for survivors, best bounds first, in
    # blocks of whole GEMM heights; every refined block can shrink tau
    # and prune the rest.
    order = np.argsort(bounds, kind="stable")
    alive = alive[order]
    bounds = bounds[order]
    block = -(-4 * k // _GEMM_ROWS) * _GEMM_ROWS
    position = 0
    with current_tracer().span("refine", candidates=int(alive.shape[0])) as span:
        while True:
            # Sorted by bound: the rows within the cut are a prefix.
            within = int(np.searchsorted(bounds, prune_threshold(tau), side="right"))
            stop = min(position + block, within)
            if stop <= position:
                break
            chunk = alive[position:stop]
            position = stop
            chunk_distances = np.asarray(query.distances(vectors[chunk]))
            refined += int(chunk.shape[0])
            merged_ids = np.concatenate([best_ids, chunk])
            merged_distances = np.concatenate([best_distances, chunk_distances])
            top = exact_top_k(merged_distances, k, tie_break=merged_ids)
            best_ids = merged_ids[top]
            best_distances = merged_distances[top]
            tau = float(best_distances[-1])
        span.set("refined", refined)

    stats = ScanStats(
        filtered=n,
        refined=refined,
        pruned=n - refined,
        schedule=schedule,
        survivors_per_level=tuple(survivors_per_level),
    )
    add_event(
        "progressive_scan",
        filtered=stats.filtered,
        refined=stats.refined,
        pruned=stats.pruned,
        schedule=list(schedule),
        survivors_per_level=list(stats.survivors_per_level),
    )
    return ProgressiveResult(
        indices=best_ids, distances=best_distances, stats=stats
    )


def progressive_topk(vectors: np.ndarray, query, k: int) -> Optional[ProgressiveResult]:
    """Exact top-``k`` of ``query`` over ``vectors`` by filter-and-refine.

    A batch of one through :func:`progressive_topk_batch`.  Returns
    ``None`` when the progressive path does not apply (layer disabled,
    kernels disabled, scan too small, ``k`` too close to ``N``, query
    without per-cluster structure, or no eligible plan) — callers then
    fall back to their classic full scan.  When it does apply, the
    result is byte-identical to
    ``exact_top_k(query.distances(vectors), k)``.
    """
    return progressive_topk_batch(vectors, [query], [k])[0]


def _batched_prefix_level0(
    vectors: np.ndarray, plans: Sequence[ProgressivePlan]
) -> List[np.ndarray]:
    """Level-0 prefix values for several plans in one stacked pass.

    Concatenates every plan's ``[0, t0)`` columns into one wide operand
    so each database tile feeds a single GEMM covering the whole
    micro-batch (every plan scans the same matrix, so they share the
    dimension and therefore ``t0``), then splits the per-cluster rows
    back per plan.  The tiles are centred on the mean of the plans'
    shifts; any shared point gives valid bounds.
    """
    t0 = plans[0].schedule[0]
    shift = np.mean([plan.shift for plan in plans], axis=0)
    stacked, offsets = zip(*(plan.operands(vectors, 0, t0, shift) for plan in plans))
    sums = _prefix_sums(
        vectors, shift, np.concatenate(stacked, axis=1), np.concatenate(offsets), t0
    )
    return np.split(sums, np.cumsum([plan.size for plan in plans])[:-1])


def progressive_topk_batch(
    vectors: np.ndarray,
    queries: Sequence[object],
    ks: Sequence[int],
) -> List[Optional[ProgressiveResult]]:
    """Filter-and-refine several queries over one matrix, sharing passes.

    The one progressive scan (:func:`progressive_topk` is a batch of
    one): all eligible queries share one level-0 pass, a single
    stacked prefix GEMM over the whole micro-batch (the database is
    read from memory once instead of once per query).  Seeding,
    escalation and refinement then run per query through each query's
    own compiled kernels, so every returned page is byte-identical to
    that query's full-scan counterpart, whatever its batch mates.

    Args:
        queries: the micro-batch (need not share cluster counts or
            schemes; each is gated independently).
        ks: per-query page sizes.

    Returns:
        One :class:`ProgressiveResult` per query, or ``None`` in the
        slots where the progressive path does not apply (the caller
        falls back to a full scan for those queries).
    """
    results: List[Optional[ProgressiveResult]] = [None] * len(queries)
    prepared = []  # (index, combine, plan)
    for index, (query, k) in enumerate(zip(queries, ks)):
        prep = _prepare(vectors, query, k)
        if prep is not None:
            prepared.append((index, prep[0], prep[1]))
    if not prepared:
        return results
    level0 = _batched_prefix_level0(vectors, [plan for _, _, plan in prepared])
    for (index, combine, plan), per_cluster0 in zip(prepared, level0):
        results[index] = _scan_from_level0(
            vectors, queries[index], combine, plan, ks[index], per_cluster0
        )
    return results


# ----------------------------------------------------------------------
# Escape hatch
# ----------------------------------------------------------------------


def progressive_enabled() -> bool:
    """Whether the progressive scan layer is active (default: yes)."""
    return _ENABLED


def progressive_min_rows() -> int:
    """Current minimum candidate count for the progressive path."""
    return _MIN_ROWS


@contextmanager
def use_progressive(
    enabled: bool, min_rows: Optional[int] = None
) -> Iterator[None]:
    """Temporarily enable/disable progressive scanning (test/bench hook).

    Args:
        enabled: activate or deactivate the layer.
        min_rows: optional temporary override of the minimum scan size
            (tests use a small value to exercise the path on small
            fixtures).
    """
    global _ENABLED, _MIN_ROWS
    previous = (_ENABLED, _MIN_ROWS)
    _ENABLED = bool(enabled)
    if min_rows is not None:
        if min_rows < 1:
            raise ValueError(f"min_rows must be at least 1, got {min_rows}")
        _MIN_ROWS = int(min_rows)
    try:
        yield
    finally:
        _ENABLED, _MIN_ROWS = previous
