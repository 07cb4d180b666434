"""Compiled distance kernels for multipoint queries (paper Figure 6).

The paper's central efficiency claim is that the diagonal covariance
scheme is far cheaper than the full inverse-matrix scheme.  A naive
implementation hides that gap: if the diagonal scheme materializes a
dense ``(p, p)`` matrix and every ranking performs a full
``(N, p) @ (p, p)`` product, both schemes cost identically and Figure 6
cannot be measured.  This module makes the asymptotics real by
*compiling* a query once into the cheapest evaluator its structure
admits:

* **diagonal kernel** — a query point whose ``S^{-1}`` is exactly
  diagonal keeps only the weight vector ``w = diag(S^{-1})`` and scores
  ``d^2 = Σ_j w_j (x_j - c_j)^2`` in O(N·p) with no matrix product at
  all (the paper's MARS-style scheme, Section 4.4.4);
* **Cholesky/whitening kernel** — a full ``S^{-1}`` is factored once as
  ``S^{-1} = L L'`` so ``d^2 = ||(x - c) L||^2``; all such clusters are
  fused into one blocked, cache-tiled batched matmul
  ``(N, p) @ (p, g·p)`` that fills the whole ``(g, N)`` distance matrix
  in a single pass;
* **matmul kernel** — pathological non-positive-definite inverses fall
  back to the naive quadratic form (still without per-call conversion
  overhead).

Compiled queries are *content-addressed*: :func:`fingerprint_cluster_state`
hashes exactly the cluster statistics that determine the ranking
(means, ``S_i^{-1}``, relevance masses — the same bytes the service
result cache hashes), and :class:`KernelCache` maps fingerprints to
compiled evaluators.  Kernels are therefore reused across database
shards, feedback rounds and sessions that share a query instead of
being rebuilt on every ``distances()`` call; the compiled object is
additionally memoized on the query instance so repeated evaluation
(tree leaves, shards, result pages) costs a single attribute read.

The index's lower-bound machinery also benefits: each kernel knows its
exact per-axis bound (diagonal) or smallest eigenvalue (full), computed
once per compilation instead of once per k-NN call.

:func:`use_kernels` switches the whole layer off, restoring the naive
``quadratic_distance_many`` path — the hook the equivalence tests and
benchmarks use to compare the two implementations.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from collections import OrderedDict
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import fault_point, register_site
from ..obs import add_event, current_tracer

#: Chaos-injection site: fires once per genuine query compilation
#: (Cholesky factorization, kernel selection, fusion layout), keyed by
#: the cluster-state fingerprint.  Compilation is pure, so the service
#: retries it with bounded backoff.
_SITE_COMPILE = register_site("kernel.compile", "distance-kernel compilation")

__all__ = [
    "fingerprint_cluster_state",
    "DiagonalKernel",
    "CholeskyKernel",
    "MatmulKernel",
    "CompiledQuery",
    "KernelCache",
    "batched_per_cluster_distances",
    "compile_query",
    "ensure_compiled",
    "default_kernel_cache",
    "kernels_enabled",
    "use_kernels",
]

#: A bound-info record: ``(center, diagonal-or-None, lambda_min)`` —
#: the exact shape :meth:`repro.index.tree.HybridTree` consumes.
BoundInfo = Tuple[np.ndarray, Optional[np.ndarray], float]

#: Row height of every whitening and matmul GEMM call.  OpenBLAS picks
#: its code path (small-matrix kernel, edge kernels for a short panel)
#: from the call's shape, and a row's bits follow the path; calling at
#: one fixed height, the last block padded, gives every row the same
#: bits however many rows are scored with it.
_GEMM_ROWS = 768

#: Target element count of one diagonal tile: a database block this
#: size is read from memory once and rescanned (subtract/square/dot)
#: for every cluster while it is still cache-hot.
_DIAGONAL_TILE_ELEMENTS = 1 << 15

#: Diagonal GEMV calls are padded to a multiple of this many rows: the
#: GEMV kernel scores rows in blocks of this width, and a row in a
#: short tail block takes a path with different rounding.
_GEMV_ROWS = 8

#: Target element count of one *multi-query* tile: a database block
#: this size is read from main memory once per micro-batch and scored
#: against every batched query's kernels while it is still cache-hot,
#: instead of once per query.
_BATCH_TILE_ELEMENTS = 1 << 18


def _as_matrix(database: np.ndarray) -> np.ndarray:
    """One canonical ``(N, p)`` float view; copies only when needed.

    float32 inputs (mmap'd store shards) pass through unconverted: the
    kernels' arithmetic mixes them with float64 query statistics, and
    NumPy's float32→float64 promotion is exact, so results are
    bit-identical to scanning a float64 copy — without materializing
    one on the hot path.
    """
    database = np.atleast_2d(np.asarray(database))
    if database.dtype not in (np.float64, np.float32):
        database = database.astype(float)
    return database


def fingerprint_cluster_state(query) -> str:
    """Blake2b digest of a query's ranking-relevant cluster state.

    Hashes the per-point centers, inverse covariance matrices and
    relevance masses in order — the complete input of the distance
    function over a fixed database.  Two queries with byte-identical
    cluster statistics share a fingerprint and therefore a compiled
    kernel (and, in the service layer, cached result pages).

    A query that already carries its compiled kernel answers from the
    memo: queries are immutable, so the fingerprint recorded at
    compile time stays authoritative and repeated fingerprinting (one
    per result-page fetch in the service) costs an attribute read.
    """
    compiled = getattr(query, _MEMO_ATTRIBUTE, None)
    if compiled is not None:
        return compiled.fingerprint
    digest = hashlib.blake2b(digest_size=16)
    for point in query.points:
        digest.update(np.ascontiguousarray(point.center, dtype=float).tobytes())
        digest.update(np.ascontiguousarray(point.inverse, dtype=float).tobytes())
        digest.update(struct.pack("<d", float(point.weight)))
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Per-point kernels
# ----------------------------------------------------------------------


class DiagonalKernel:
    """O(N·p) evaluator for an exactly diagonal ``S^{-1}``.

    Keeps only the centroid and the diagonal weight vector; the dense
    matrix never participates in evaluation (see ``_FusedDiagonal``).
    """

    kind = "diagonal"

    def __init__(self, center: np.ndarray, diagonal: np.ndarray) -> None:
        self.center = np.ascontiguousarray(center, dtype=float)
        self.diagonal = np.ascontiguousarray(diagonal, dtype=float)

    def bound_info(self) -> BoundInfo:
        # The per-axis bound is exact for a diagonal form.
        return (self.center, self.diagonal, 0.0)


class CholeskyKernel:
    """Whitening evaluator for a full positive-definite ``S^{-1}``.

    Factors ``S^{-1} = L L'`` once at compile time; then
    ``d^2(x) = ||(x - c) L||^2``.  A :class:`CompiledQuery` evaluates
    all its Cholesky kernels as one fused matmul (see
    ``_FusedWhitening``).
    """

    kind = "cholesky"

    def __init__(self, center: np.ndarray, inverse: np.ndarray, factor: np.ndarray) -> None:
        self.center = np.ascontiguousarray(center, dtype=float)
        self.inverse = np.ascontiguousarray(inverse, dtype=float)
        self.factor = np.ascontiguousarray(factor, dtype=float)
        self._lambda_min: Optional[float] = None

    def bound_info(self) -> BoundInfo:
        if self._lambda_min is None:
            eigenvalues = np.linalg.eigvalsh(self.inverse)
            self._lambda_min = float(max(eigenvalues.min(), 0.0))
        return (self.center, None, self._lambda_min)


class MatmulKernel:
    """Fallback evaluator: the naive quadratic form, conversion-free.

    Used when ``S^{-1}`` is neither diagonal nor positive definite
    (possible only for hand-built queries; both covariance schemes
    produce positive-definite inverses).
    """

    kind = "matmul"

    def __init__(self, center: np.ndarray, inverse: np.ndarray) -> None:
        self.center = np.ascontiguousarray(center, dtype=float)
        self.inverse = np.ascontiguousarray(inverse, dtype=float)
        self._lambda_min: Optional[float] = None

    def distances(self, database: np.ndarray) -> np.ndarray:
        out = np.empty(database.shape[0])
        for start, stop, block in _gemm_blocks(database, self.center):
            transformed = (block @ self.inverse)[: stop - start]
            out[start:stop] = np.einsum("ij,ij->i", transformed, block[: stop - start])
        return out

    def bound_info(self) -> BoundInfo:
        if self._lambda_min is None:
            eigenvalues = np.linalg.eigvalsh(self.inverse)
            self._lambda_min = float(max(eigenvalues.min(), 0.0))
        return (self.center, None, self._lambda_min)


def _gemm_blocks(database: np.ndarray, shift: np.ndarray) -> Iterator[Tuple[int, int, np.ndarray]]:
    """``(start, stop, block)`` over ``_GEMM_ROWS``-row blocks.

    ``block`` is one reused ``(_GEMM_ROWS, p)`` buffer whose first
    ``stop - start`` rows hold ``database[start:stop] - shift``; a GEMM
    over the whole buffer is a call of the one fixed height.
    """
    block = np.zeros((_GEMM_ROWS, database.shape[1]))
    for start in range(0, database.shape[0], _GEMM_ROWS):
        stop = min(start + _GEMM_ROWS, database.shape[0])
        np.subtract(database[start:stop], shift, out=block[: stop - start])
        yield start, stop, block


class _FusedDiagonal:
    """All diagonal kernels of one query, evaluated tile by tile.

    The naive layout scans the whole database once per cluster — at
    production sizes that is g round trips to main memory for an
    operation that does almost no arithmetic.  Tiling flips the loop:
    each cache-sized block of rows is loaded once and scored against
    every cluster while hot.  Each GEMV runs over a multiple of
    ``_GEMV_ROWS`` rows, so no row lands in a short tail block and a
    row's bits do not depend on the tiling or on the rows around it.
    """

    def __init__(self, kernels: Sequence[DiagonalKernel], rows: Sequence[int]) -> None:
        self.rows = list(rows)
        self.centers = np.stack([k.center for k in kernels])
        self.diagonals = np.stack([k.diagonal for k in kernels])

    def write_into(self, out: np.ndarray, database: np.ndarray) -> None:
        n, p = database.shape
        tile = max(1, _DIAGONAL_TILE_ELEMENTS // max(1, p) // _GEMV_ROWS) * _GEMV_ROWS
        buffer = np.zeros((min(tile, -(-n // _GEMV_ROWS) * _GEMV_ROWS), p))
        for start in range(0, n, tile):
            stop = min(start + tile, n)
            rows = stop - start
            scratch = buffer[: -(-rows // _GEMV_ROWS) * _GEMV_ROWS]
            for position, row in enumerate(self.rows):
                np.subtract(database[start:stop], self.centers[position], out=scratch[:rows])
                np.multiply(scratch[:rows], scratch[:rows], out=scratch[:rows])
                out[row, start:stop] = (scratch @ self.diagonals[position])[:rows]


class _FusedWhitening:
    """All Cholesky kernels of one query as a single blocked matmul.

    Stacks the whitening factors side by side into ``W`` of shape
    ``(p, m·p)`` so one ``(rows, p) @ (p, m·p)`` product per tile fills
    every cluster's distance row at once.  The database is centered on
    the mean of the participating centroids before the product — a
    shared shift that keeps the per-cluster offsets (and therefore the
    cancellation error of ``x·L - c·L``) small without breaking the
    fusion.  Every product is one ``_GEMM_ROWS``-row call (see
    :func:`_gemm_blocks`).
    """

    def __init__(self, kernels: Sequence[CholeskyKernel], rows: Sequence[int]) -> None:
        self.rows = list(rows)
        self.dimension = kernels[0].center.shape[0]
        self.shift = np.mean([k.center for k in kernels], axis=0)
        self.stacked = np.ascontiguousarray(
            np.concatenate([k.factor for k in kernels], axis=1)
        )
        self.offsets = np.stack(
            [(k.center - self.shift) @ k.factor for k in kernels]
        )

    def write_into(self, out: np.ndarray, database: np.ndarray) -> None:
        p = self.dimension
        for start, stop, block in _gemm_blocks(database, self.shift):
            product = (block @ self.stacked)[: stop - start]
            for position, row in enumerate(self.rows):
                transformed = product[:, position * p : (position + 1) * p]
                transformed -= self.offsets[position]
                out[row, start:stop] = np.einsum(
                    "ij,ij->i", transformed, transformed
                )


# ----------------------------------------------------------------------
# Compiled queries
# ----------------------------------------------------------------------


class CompiledQuery:
    """A query's g points compiled into their cheapest evaluators.

    Produces the ``(g, N)`` per-cluster distance matrix the aggregate
    distance (Equation 5, or any power mean) is computed from.  The
    aggregation itself stays with the owning query object so one
    compiled artifact serves both the disjunctive query and the
    baselines' power-mean queries.
    """

    def __init__(self, kernels: Sequence[object], fingerprint: str) -> None:
        if not kernels:
            raise ValueError("a compiled query needs at least one kernel")
        self.kernels = list(kernels)
        self.fingerprint = fingerprint
        self.dimension = int(self.kernels[0].center.shape[0])
        diagonal_pairs = [
            (row, kernel)
            for row, kernel in enumerate(self.kernels)
            if isinstance(kernel, DiagonalKernel)
        ]
        cholesky_pairs = [
            (row, kernel)
            for row, kernel in enumerate(self.kernels)
            if isinstance(kernel, CholeskyKernel)
        ]
        self._fused_diagonal: Optional[_FusedDiagonal] = (
            _FusedDiagonal(
                [kernel for _, kernel in diagonal_pairs],
                [row for row, _ in diagonal_pairs],
            )
            if diagonal_pairs
            else None
        )
        self._fused_whitening: Optional[_FusedWhitening] = (
            _FusedWhitening(
                [kernel for _, kernel in cholesky_pairs],
                [row for row, _ in cholesky_pairs],
            )
            if cholesky_pairs
            else None
        )
        self._bound_infos: Optional[List[BoundInfo]] = None

    @property
    def size(self) -> int:
        """Number of query points ``g``."""
        return len(self.kernels)

    def per_cluster_distances(self, database: np.ndarray) -> np.ndarray:
        """``(g, N)`` quadratic distances of every row to each point."""
        database = _as_matrix(database)
        if database.shape[1] != self.dimension:
            raise ValueError(
                f"database dimension {database.shape[1]} != query dimension "
                f"{self.dimension}"
            )
        out = np.empty((self.size, database.shape[0]))
        for row, kernel in enumerate(self.kernels):
            if isinstance(kernel, MatmulKernel):
                out[row] = kernel.distances(database)
        if self._fused_diagonal is not None:
            self._fused_diagonal.write_into(out, database)
        if self._fused_whitening is not None:
            self._fused_whitening.write_into(out, database)
        return out

    def bound_infos(self) -> List[BoundInfo]:
        """Per-point ``(center, diagonal-or-None, lambda_min)`` records.

        Eigenvalues for full matrices are computed lazily on first use
        (only tree searches need them) and cached for the lifetime of
        the compiled query — i.e. across every feedback round and
        session sharing this cluster state.
        """
        if self._bound_infos is None:
            self._bound_infos = [kernel.bound_info() for kernel in self.kernels]
        return self._bound_infos


def batched_per_cluster_distances(
    compiled_queries: Sequence["CompiledQuery"], database: np.ndarray
) -> List[np.ndarray]:
    """Per-cluster distance matrices for several queries in one pass.

    The multi-query analogue of
    :meth:`CompiledQuery.per_cluster_distances`: the database is walked
    in cache-sized row tiles and each tile is scored against *every*
    batched query's kernels while the rows are still hot, so a
    micro-batch of B compatible queries reads the feature matrix from
    main memory once instead of B times.  A row's distances depend on
    the row alone, never on the rows scored with it, so the returned
    matrices are **bitwise identical** to each query's own full scan
    whether the batch holds one query or thirty-two.

    Args:
        compiled_queries: the batch, already compiled (see
            :func:`ensure_compiled`); queries may differ in cluster
            count and scheme.
        database: one ``(N, p)`` feature matrix shared by the batch.

    Returns:
        One ``(g_i, N)`` distance matrix per query, in batch order.
    """
    if not compiled_queries:
        return []
    database = _as_matrix(database)
    n, p = database.shape
    outs = [
        np.empty((compiled.size, n)) for compiled in compiled_queries
    ]
    tile = max(1, _BATCH_TILE_ELEMENTS // max(1, p))
    for start in range(0, n, tile):
        block = database[start : start + tile]
        for compiled, out in zip(compiled_queries, outs):
            out[:, start : start + tile] = compiled.per_cluster_distances(block)
    return outs


def _point_diagonal(point) -> Optional[np.ndarray]:
    """The diagonal of ``S^{-1}`` if the matrix is exactly diagonal."""
    explicit = getattr(point, "diagonal", None)
    if explicit is not None:
        return np.asarray(explicit, dtype=float)
    inverse = np.asarray(point.inverse, dtype=float)
    diagonal = np.diagonal(inverse)
    if np.count_nonzero(inverse - np.diag(diagonal)) == 0:
        return diagonal.copy()
    return None


def compile_query(query, fingerprint: Optional[str] = None) -> CompiledQuery:
    """Compile each query point into its cheapest evaluator.

    Args:
        query: anything exposing ``points`` (``DisjunctiveQuery``,
            ``PowerMeanQuery``, ...).
        fingerprint: precomputed cluster-state fingerprint, if the
            caller already has one.
    """
    if fingerprint is None:
        fingerprint = fingerprint_cluster_state(query)
    fault_point(_SITE_COMPILE, key=fingerprint)
    kernels: List[object] = []
    for point in query.points:
        diagonal = _point_diagonal(point)
        if diagonal is not None:
            kernels.append(DiagonalKernel(point.center, diagonal))
            continue
        inverse = np.asarray(point.inverse, dtype=float)
        try:
            factor = np.linalg.cholesky(inverse)
        except np.linalg.LinAlgError:
            kernels.append(MatmulKernel(point.center, inverse))
        else:
            kernels.append(CholeskyKernel(point.center, inverse, factor))
    return CompiledQuery(kernels, fingerprint)


# ----------------------------------------------------------------------
# Content-addressed kernel cache
# ----------------------------------------------------------------------


class KernelCache:
    """Thread-safe LRU map from cluster-state fingerprints to kernels.

    Args:
        capacity: maximum resident compiled queries; least recently
            used entries are discarded on overflow.  ``0`` disables
            caching (every lookup misses).
    """

    _N_STRIPES = 16

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        # Per-fingerprint-stripe compile locks: concurrent misses on the
        # same fingerprint serialize on a stripe so the compilation runs
        # once, while misses on different fingerprints compile freely in
        # parallel (the map lock above is never held during compilation).
        self._stripes = [threading.Lock() for _ in range(self._N_STRIPES)]
        self._entries: "OrderedDict[str, CompiledQuery]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, fingerprint: str) -> Optional[CompiledQuery]:
        """The compiled query for ``fingerprint``, or ``None`` on a miss."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(fingerprint)
            self.hits += 1
            return entry

    def put(self, fingerprint: str, compiled: CompiledQuery) -> None:
        """Insert a compiled query, evicting the LRU tail on overflow."""
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[fingerprint] = compiled
            self._entries.move_to_end(fingerprint)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def _peek(self, fingerprint: str) -> Optional[CompiledQuery]:
        """Like :meth:`get` but without touching the hit/miss counters."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is not None:
                self._entries.move_to_end(fingerprint)
            return entry

    def get_or_create(
        self,
        fingerprint: str,
        factory: Callable[[], "CompiledQuery"],
        on_event: Optional[Callable[[str], None]] = None,
    ) -> "CompiledQuery":
        """The entry for ``fingerprint``, compiling it at most once.

        A miss acquires the fingerprint's stripe lock and re-checks the
        map before calling ``factory``, so two threads racing on the
        same cluster state never compile twice: the loser of the race
        finds the winner's entry on the double-check (it still counts
        its original miss — it did arrive before the entry existed).

        Args:
            fingerprint: cluster-state fingerprint key.
            factory: zero-argument compiler, invoked on a genuine miss.
            on_event: optional ``"hits"``/``"misses"`` callback
                (exactly one event per call).
        """
        compiled = self.get(fingerprint)
        if compiled is not None:
            if on_event is not None:
                on_event("hits")
            return compiled
        if on_event is not None:
            on_event("misses")
        if self.capacity == 0:
            # Caching disabled: nothing to publish or double-check.
            return factory()
        stripe = self._stripes[hash(fingerprint) % self._N_STRIPES]
        with stripe:
            compiled = self._peek(fingerprint)
            if compiled is None:
                compiled = factory()
                self.put(fingerprint, compiled)
        return compiled

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """``{entries, capacity, hits, misses, hit_rate}``."""
        with self._lock:
            total = self.hits + self.misses
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": self.hits / total if total else 0.0,
            }


#: Process-wide cache: kernels are shared across shards, feedback
#: rounds, sessions and even distinct service instances.
_DEFAULT_CACHE = KernelCache()

#: Attribute name used to memoize the compiled kernel on query objects.
_MEMO_ATTRIBUTE = "_compiled_kernel"

_ENABLED = True


def default_kernel_cache() -> KernelCache:
    """The process-wide kernel cache."""
    return _DEFAULT_CACHE


def kernels_enabled() -> bool:
    """Whether the compiled-kernel path is active (default: yes)."""
    return _ENABLED


@contextmanager
def use_kernels(enabled: bool) -> Iterator[None]:
    """Temporarily enable/disable the kernel layer (benchmark hook).

    With kernels disabled every distance path falls back to the naive
    ``quadratic_distance_many`` implementation — the reference the
    equivalence tests and the scheme benchmarks compare against.
    """
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = previous


def ensure_compiled(
    query,
    cache: Optional[KernelCache] = None,
    on_event: Optional[Callable[[str], None]] = None,
    scope: Optional[str] = None,
) -> CompiledQuery:
    """The query's compiled kernels, building them at most once.

    Resolution order:

    1. the memo on the query instance (free — covers repeated
       ``distances()`` calls from tree leaves, shards and result pages);
    2. the content-addressed cache, keyed by the cluster-state
       fingerprint (covers feedback rounds and sessions sharing a
       query);
    3. a fresh compilation, which is then published to both.

    Args:
        query: anything exposing ``points``.
        cache: kernel cache to consult (default: the process-wide one).
        on_event: optional callback receiving ``"hits"`` or ``"misses"``
            — the hook :class:`~repro.service.metrics.ServiceMetrics`
            counters attach to.
        scope: optional dataset identity (the feature store's
            ``content_hash:epoch``) salting the *cache key* only; the
            compiled artifact itself — a pure function of the cluster
            state — keeps the unsalted fingerprint.  ``None`` (the
            in-memory default) preserves the historical key.
    """
    compiled = getattr(query, _MEMO_ATTRIBUTE, None)
    if compiled is not None:
        if on_event is not None:
            on_event("hits")
        return compiled
    if cache is None:
        cache = _DEFAULT_CACHE
    # A memo miss is a traced stage of its own: fingerprinting the
    # cluster state, the cache consult and, on a genuine miss, the
    # compilation (Cholesky factorization, kernel selection, fusion
    # layout).
    with current_tracer().span("compile", points=len(query.points)) as span:
        fingerprint = fingerprint_cluster_state(query)
        span.set("fingerprint", fingerprint)
        cache_key = fingerprint if scope is None else f"{fingerprint}|{scope}"

        def _observe(event: str) -> None:
            # One "hits"/"misses" event per cache consult — mirrored to the
            # ambient trace so operators can see cache behaviour per round.
            add_event(
                "kernel_cache",
                outcome="hit" if event == "hits" else "miss",
                fingerprint=fingerprint,
            )
            if on_event is not None:
                on_event(event)

        compiled = cache.get_or_create(
            cache_key,
            lambda: compile_query(query, fingerprint=fingerprint),
            on_event=_observe,
        )
        span.set("kinds", sorted({kernel.kind for kernel in compiled.kernels}))
    try:
        object.__setattr__(query, _MEMO_ATTRIBUTE, compiled)
    except (AttributeError, TypeError):  # __slots__ or exotic query types
        pass
    return compiled
