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
query's own ``distances()`` (the compiled kernels, whose row-subset
evaluations are bitwise identical to full-scan rows), and a candidate
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
from .kernels import CholeskyKernel, CompiledQuery, DiagonalKernel, ensure_compiled

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
#: bound arithmetic (eigen-basis) differs from the exact path
#: (Cholesky), so bounds can overshoot true distances by a few ulps;
#: the slack keeps such overshoot from ever pruning a true neighbour.
_RELATIVE_SLACK = 1e-9
_ABSOLUTE_SLACK = 1e-12

#: Attribute memoizing the plan (or its absence) on a compiled query.
_PLAN_ATTRIBUTE = "_prefix_plan"

#: Rows sampled (strided) to estimate per-coordinate mass for ordering.
_SAMPLE_ROWS = 256

#: Minimum refine-block size; blocks also scale with k.
_MIN_REFINE_BLOCK = 256

#: Per-plan cap on cached per-database scan contexts (each shard of a
#: sharded scan keys its own context).
_MAX_CONTEXTS = 8

#: Target element count of one batched level-0 product tile
#: ``(rows, Σ_i g_i·t0)`` — large enough that the per-tile Python
#: bookkeeping amortizes, small enough that the buffer stays far from
#: memory pressure.
_BATCH_LEVEL0_TILE_ELEMENTS = 1 << 21

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

    Lower bounds are computed in a different basis (eigen) than exact
    distances (Cholesky), so a bound can exceed the distance it bounds
    by a few ulps of float error; comparing bounds against this slacked
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
    """Coordinate-subset lower bounds for a diagonal ``S⁻¹``.

    The basis is already diagonal: ``d² = Σ_j w_j (x_j − c_j)²`` with
    ``w_j ≥ 0``, so any subset of coordinates lower-bounds the total.
    """

    def __init__(self, kernel: DiagonalKernel) -> None:
        self.center = kernel.center
        self.weights = np.maximum(kernel.diagonal, 0.0)

    def data_order(self, sample: np.ndarray) -> np.ndarray:
        centered = sample - self.center
        mass = self.weights * np.mean(centered * centered, axis=0)
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

    def data_order(self, sample: np.ndarray) -> np.ndarray:
        transformed = (sample - self.center) @ self.transform
        mass = np.mean(transformed * transformed, axis=0)
        return np.argsort(-mass, kind="stable")


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------


class _ScanContext:
    """Per-(plan, database) filter operands, built once and reused.

    Holds the data-aware coordinate orders and, for the whitened
    clusters, one *stacked* transform slice per schedule range so a
    whole filter level is a single GEMM over the raw rows with the
    per-cluster center projections folded into one offset vector
    (``y = x·C − c·C``).  The expanded form perturbs bound values by
    float cancellation noise only — bounds feed pruning decisions
    through the slacked threshold, never a distance that gets returned.

    Diagonal clusters have no cheap prefix: their full scan is already
    memory-bound O(N·p), and a column subset touches the same cache
    lines.  Mixed queries therefore score diagonal clusters *exactly*
    in the first filter level (an exact value is the tightest possible
    "bound"; later levels add zero) and the whitened clusters — where
    the O(N·p²) savings live — carry the truncation.
    """

    def __init__(self, plan: "ProgressivePlan", vectors: np.ndarray) -> None:
        self.plan = plan
        self.orders = plan.sample_orders(vectors)
        self._whitened = plan._whitened
        self._diagonal = plan._diagonal
        self._ranges: dict = {}

    def _stacked_range(self, lo: int, hi: int):
        cached = self._ranges.get((lo, hi))
        if cached is None:
            columns = [
                prefix.transform[:, self.orders[row][lo:hi]]
                for row, prefix in self._whitened
            ]
            stacked = np.ascontiguousarray(np.concatenate(columns, axis=1))
            offsets = np.concatenate(
                [
                    prefix.center @ cols
                    for (_, prefix), cols in zip(self._whitened, columns)
                ]
            )
            cached = (stacked, offsets)
            self._ranges[(lo, hi)] = cached
        return cached

    def prefix_distances(self, rows: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """``(g, N)`` partial distances over coordinates ``[lo, hi)``.

        Additive across disjoint ranges: whitened clusters accumulate
        their ordered coordinate blocks; diagonal clusters contribute
        everything at ``lo == 0`` and zero afterwards.
        """
        out = np.empty((self.plan.size, rows.shape[0]))
        if self._whitened:
            stacked, offsets = self._stacked_range(lo, hi)
            product = rows @ stacked
            product -= offsets
            np.multiply(product, product, out=product)
            sums = product.reshape(rows.shape[0], len(self._whitened), hi - lo).sum(
                axis=2
            )
            for position, (row, _) in enumerate(self._whitened):
                out[row] = sums[:, position]
        for row, prefix in self._diagonal:
            if lo == 0:
                centered = rows - prefix.center
                np.multiply(centered, centered, out=centered)
                out[row] = centered @ prefix.weights
            else:
                out[row] = 0.0
        return out


class ProgressivePlan:
    """Per-cluster prefix evaluators plus the dimension schedule.

    Built once per compiled query (memoized alongside the kernels) so
    the eigen-decompositions are paid once per cluster state — shared
    across feedback rounds, shards and sessions exactly like the
    kernels themselves.
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
        self._whitened = [
            (row, prefix)
            for row, prefix in enumerate(prefixes)
            if isinstance(prefix, _WhitenedPrefix)
        ]
        self._diagonal = [
            (row, prefix)
            for row, prefix in enumerate(prefixes)
            if isinstance(prefix, _DiagonalPrefix)
        ]
        self._context_lock = threading.Lock()
        self._contexts: "OrderedDict[Tuple[int, int], _ScanContext]" = OrderedDict()

    @property
    def size(self) -> int:
        """Number of clusters."""
        return len(self.prefixes)

    def scan_context(self, vectors: np.ndarray) -> _ScanContext:
        """The cached :class:`_ScanContext` for this database (or shard).

        Keyed by array identity: each shard of a sharded scan gets its
        own context (its own sample-derived coordinate orders).  A
        stale key after an id reuse merely yields suboptimal orders —
        every order is a valid bound permutation — so the cache needs
        no invalidation protocol, only the LRU size cap.
        """
        key = (id(vectors), vectors.shape[0])
        with self._context_lock:
            context = self._contexts.get(key)
            if context is None:
                context = _ScanContext(self, vectors)
                self._contexts[key] = context
                while len(self._contexts) > _MAX_CONTEXTS:
                    self._contexts.popitem(last=False)
            else:
                self._contexts.move_to_end(key)
            return context

    def sample_orders(self, vectors: np.ndarray) -> List[np.ndarray]:
        """Data-aware coordinate orders from a strided database sample.

        Orders each cluster's coordinates by observed mass ``E[y_j²]``
        (largest first) so the first prefix soaks up as much of the
        true distance as this database allows.  Affects pruning power
        only — any permutation yields valid bounds.
        """
        n = vectors.shape[0]
        if n <= _SAMPLE_ROWS:
            sample = vectors
        else:
            sample = vectors[:: n // _SAMPLE_ROWS][:_SAMPLE_ROWS]
        return [prefix.data_order(sample) for prefix in self.prefixes]


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
    context: _ScanContext,
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

    # --- Seed the threshold: refine the k most promising candidates.
    seed = np.argpartition(lower, k - 1)[:k]
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
        per_cluster_alive = per_cluster_alive + context.prefix_distances(
            vectors[alive], lo, hi
        )
        bounds = np.asarray(combine(per_cluster_alive))
        keep = bounds <= prune_threshold(tau)
        alive = alive[keep]
        per_cluster_alive = per_cluster_alive[:, keep]
        bounds = bounds[keep]
        survivors_per_level.append(int(alive.shape[0]))

    # --- Refine: exact distances for survivors, best bounds first, in
    # blocks; every refined block can shrink tau and prune the rest.
    order = np.argsort(bounds, kind="stable")
    alive = alive[order]
    bounds = bounds[order]
    block = max(_MIN_REFINE_BLOCK, 4 * k)
    position = 0
    with current_tracer().span("refine", candidates=int(alive.shape[0])) as span:
        while position < alive.shape[0]:
            cut = prune_threshold(tau)
            if bounds[position] > cut:
                break  # sorted by bound: everything left is pruned too
            chunk = alive[position : position + block]
            chunk = chunk[bounds[position : position + block] <= cut]
            position += block
            if chunk.shape[0] == 0:
                continue
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
    vectors: np.ndarray,
    plans: Sequence[ProgressivePlan],
    contexts: Sequence[_ScanContext],
) -> List[np.ndarray]:
    """Level-0 prefix values for several plans in one stacked pass.

    Concatenates every plan's ``(0, t0)`` whitened operands into one
    wide ``(p, Σ_i m_i·t0_i)`` matrix so each database tile feeds a
    single GEMM covering the whole micro-batch, then splits the
    products back per plan (the same expanded ``x·C − c·C`` arithmetic
    as :meth:`_ScanContext.prefix_distances`).  Diagonal clusters are
    scored exactly on the same hot tile.  Values can differ from
    :meth:`_ScanContext.prefix_distances` by summation-order ulps only
    — they feed the slacked pruning threshold, never a returned
    distance.
    """
    n = vectors.shape[0]
    outs = [np.empty((plan.size, n)) for plan in plans]
    entries = []  # (out, plan, column offset, width)
    blocks: List[np.ndarray] = []
    offset_parts: List[np.ndarray] = []
    column = 0
    for out, plan, context in zip(outs, plans, contexts):
        t0 = plan.schedule[0]
        stacked, offsets = context._stacked_range(0, t0)
        width = stacked.shape[1]
        blocks.append(stacked)
        offset_parts.append(offsets)
        entries.append((out, plan, column, width, t0))
        column += width
    big = np.ascontiguousarray(np.concatenate(blocks, axis=1))
    offsets_all = np.concatenate(offset_parts)
    tile = max(1, _BATCH_LEVEL0_TILE_ELEMENTS // max(1, big.shape[1]))
    for start in range(0, n, tile):
        stop = min(start + tile, n)
        rows = vectors[start:stop]
        product = rows @ big
        product -= offsets_all
        np.multiply(product, product, out=product)
        for out, plan, lo, width, t0 in entries:
            sums = product[:, lo : lo + width].reshape(
                stop - start, len(plan._whitened), t0
            ).sum(axis=2)
            for position, (row, _) in enumerate(plan._whitened):
                out[row, start:stop] = sums[:, position]
            for row, prefix in plan._diagonal:
                centered = rows - prefix.center
                np.multiply(centered, centered, out=centered)
                out[row, start:stop] = centered @ prefix.weights
    return outs


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
    plans = [plan for _, _, plan in prepared]
    contexts = [plan.scan_context(vectors) for plan in plans]
    level0 = _batched_prefix_level0(vectors, plans, contexts)
    for position, (index, combine, plan) in enumerate(prepared):
        results[index] = _scan_from_level0(
            vectors,
            queries[index],
            combine,
            plan,
            contexts[position],
            ks[index],
            level0[position],
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
