"""`RetrievalService` — the concurrent multi-session facade.

One service object fronts one indexed collection and serves many
relevance-feedback sessions at once:

* ``create_session`` / ``query`` / ``feedback`` / ``close`` mirror the
  paper's Figure 2 interaction, per session id;
* per-session access is serialized by the session's own lock while
  distinct sessions run fully in parallel (the store-level lock is held
  only for map lookups);
* every exact scan is a micro-batch: the batching executor's batches
  (each led by one of the waiting request threads, at most
  ``max_workers`` at once) and, when batching is off (or a rescue needs
  one query rescanned), a single query as a batch of one — one fan-out
  (:meth:`_scan`) serves them all;
* that scan executes across database shards on a shared
  :class:`~concurrent.futures.ThreadPoolExecutor` — the quadratic-form
  hot path is NumPy ``matmul``/``einsum`` which releases the GIL, so
  shards genuinely overlap; a store-backed service can instead fan out
  to a :class:`~repro.parallel.ShardWorkerPool` of worker *processes*,
  each scanning its own read-only mmap of the
  :class:`~repro.store.FeatureStore` file with zero copies;
* repeated page fetches within an iteration are served by the
  content-addressed :class:`~repro.service.cache.ResultCache`;
* index failures and soft-deadline misses degrade gracefully to the
  exact sharded scan (see :mod:`repro.service.degrade`);
* transient failures are absorbed by the resilience machinery
  (:mod:`repro.service.resilience`): kernel compilation and per-shard
  scans retry with bounded backoff under a per-request deadline
  budget, and any coverage actually lost is reported on the page's
  :class:`~repro.system.ResultQuality`;
* everything is observable through :meth:`metrics_snapshot`.

Results are bit-identical whether a session is served serially or
interleaved with others, through the index or the fallback scan, live
or restored from an eviction checkpoint — concurrency and degradation
change cost, never rankings.  The one exception is spelled out rather
than silent: a page whose quality is not exact (a shard dropped after
its retry budget, a session rebuilt from a corrupt checkpoint) carries
the reasons on ``page.quality``, and once such a page has influenced a
session's feedback the session stays marked.
"""

from __future__ import annotations

import contextvars
import functools
import os
import time
import uuid
from concurrent.futures import Future, ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.kernels import CompiledQuery, default_kernel_cache, ensure_compiled
from ..core.progressive import exact_top_k
from ..datasets.matrix import assert_scan_ready
from ..faults import fault_point, register_site
from ..index.linear import page_capacity_for
from ..index.multipoint import MultipointSearcher
from ..index.tree import HybridTree
from ..obs import (
    NULL_TRACER,
    SLOTracker,
    activate,
    add_event,
    current_span,
    prometheus_text,
)
from ..parallel.workers import (
    ShardWorkerPool,
    encode_query,
    scan_shard_topk_batch,
)
from ..retrieval.database import FeatureDatabase
from ..retrieval.methods import FeedbackMethod, QclusterMethod, QueryLike
from ..store import FeatureStore, StoreBlockCorrupt
from ..system import EXACT_QUALITY, ResultPage, ResultQuality
from .batching import BatchingConfig, BatchingExecutor, BatchRequest, compatibility_key
from .cache import ResultCache, fingerprint_query
from .degrade import DegradationPolicy, SessionGuard
from .metrics import ServiceMetrics
from .resilience import DeadlineBudget, ResiliencePolicy, retry_call
from .sessions import ManagedSession, SessionNotFound, SessionStore

__all__ = ["RetrievalService"]

#: Below this many rows per shard, thread fan-out costs more than the
#: NumPy kernel it parallelizes.
_MIN_SHARD_ROWS = 1024

#: Chaos-injection site: fires per per-shard top-k task, keyed by the
#: shard's global row offset.  Errors here are retried with backoff; a
#: shard that exhausts its retries is dropped from the merge and the
#: page is marked ``shard_failed``.
_SITE_SHARD = register_site("shard.scan", "per-shard top-k scan task")

#: Reason tags that mean "deliberately approximate", not "coverage
#: lost".  A page whose reasons are drawn entirely from this set is
#: stamped ``approximate``; any other tag in the mix means real
#: degradation, which dominates.
_ANN_TAGS = frozenset(("ann", "ann_fallback"))


class RetrievalService:
    """Serve many concurrent feedback sessions over one collection.

    Args:
        database: a :class:`FeatureDatabase`, a raw ``(n, p)`` feature
            matrix, or an opened
            :class:`~repro.store.FeatureStore` — the store is served
            zero-copy from its mmap, shard partition and all, and its
            ``content_hash:epoch`` fingerprint is mixed into every
            result-cache and kernel-cache key.
        scan_backend: ``"threads"`` (default — the shared
            :class:`ThreadPoolExecutor`) or ``"processes"`` (a
            spawn-safe :class:`~repro.parallel.ShardWorkerPool`; store
            backed databases only).  Backends are interchangeable:
            per-shard results merge in shard order under the
            ``(distance, id)`` tie-break, so rankings are byte-identical
            across backends — only wall-clock cost changes.
        method_factory: feedback strategy per session (default
            Qcluster; only Qcluster-backed sessions are checkpointable).
        k: default result-page size.
        use_index: serve queries through the :class:`HybridTree` with
            per-session node caches; ``False`` always uses the exact
            sharded scan.
        n_shards: shards for the parallel scan path; default sizes
            shards to at least ``_MIN_SHARD_ROWS`` rows and at most the
            worker count.
        max_workers: threads in the shared ranking pool, and the number
            of micro-batches the batching executor runs at once
            (default: CPU count, capped at 8).
        capacity: maximum in-memory sessions (LRU-evicted beyond).
        ttl_seconds: idle session lifetime before eviction.
        checkpoint_dir: where eviction checkpoints live; enables
            sessions to survive process restarts.
        cache_size: result-cache capacity in pages (0 disables).
        soft_deadline_s: per-query latency budget for the index path.
        deadline_trip: consecutive deadline misses before a session is
            pinned to the fallback scan.
        resilience: retry and request-deadline knobs (see
            :class:`~repro.service.resilience.ResiliencePolicy`); the
            default retries idempotent stages three times, with no
            request deadline.
        metrics: share an external :class:`ServiceMetrics` if desired.
        tracer: a :class:`~repro.obs.Tracer` recording per-request span
            trees (classify/merge/compile/scan/refine stages with
            algorithmic events); default is the no-op
            :data:`~repro.obs.NULL_TRACER`, whose overhead is
            negligible (see ``benchmarks/test_obs_overhead.py``).
        batching: queue compatible concurrent exact-scan queries so
            they meet batch mates and share one database pass (see
            :mod:`repro.service.batching`); ``True`` uses the default
            :class:`~repro.service.batching.BatchingConfig`, or pass a
            config directly.  Without it each query is scanned as a
            batch of one.  Pages stay byte-identical either way; only
            wall-clock cost and throughput change.
        slo: a :class:`~repro.obs.SLOTracker` recording per-route /
            per-tenant / per-quality latency histograms and objective
            burn rates; one with the default objectives is built when
            omitted (SLO accounting is never sampled — an SLO computed
            over a sample is not an SLO).
        ann: build the approximate tier — a row-budgeted search over
            the lowest-bound leaves of a :class:`HybridTree`
            (:meth:`~repro.index.tree.HybridTree.approximate_knn`),
            whose budget the tree calibrates once at build time.  With
            ``use_index`` too, both tiers share one tree.
            Exact search stays the default: the tier serves only
            requests that ask for it (``approximate=True`` on
            :meth:`query` / :meth:`feedback`) and batching traffic shed
            past ``shed_threshold`` (which therefore requires the tier).
            Every page it serves is stamped
            ``ResultQuality(approximate, estimated_recall=...)``.
    """

    def __init__(
        self,
        database: Union[FeatureDatabase, FeatureStore, np.ndarray],
        *,
        method_factory: Callable[[], FeedbackMethod] = QclusterMethod,
        k: int = 20,
        use_index: bool = True,
        scan_backend: str = "threads",
        n_shards: Optional[int] = None,
        max_workers: Optional[int] = None,
        capacity: int = 256,
        ttl_seconds: Optional[float] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        cache_size: int = 128,
        soft_deadline_s: Optional[float] = None,
        deadline_trip: int = 1,
        resilience: Optional[ResiliencePolicy] = None,
        metrics: Optional[ServiceMetrics] = None,
        tracer=None,
        batching: Union[bool, BatchingConfig, None] = None,
        slo: Optional[SLOTracker] = None,
        ann: bool = False,
    ) -> None:
        if scan_backend not in ("threads", "processes"):
            raise ValueError(
                f"scan_backend must be 'threads' or 'processes', got {scan_backend!r}"
            )
        self._feature_store: Optional[FeatureStore] = None
        self._vectors: Optional[np.ndarray] = None
        if isinstance(database, FeatureStore):
            # Served straight from the mmap: shards stay float32 views
            # of the store file and are never copied or upcast on the
            # scan path (the kernels' float32→float64 promotion during
            # arithmetic is exact, so rankings match an in-memory scan
            # bit for bit).  The full matrix materializes lazily, only
            # for row access (query-by-id, feedback rows, the index).
            self._feature_store = database
            n_rows, dimension = database.n, database.dimension
            if n_shards is not None and n_shards != database.n_shards:
                raise ValueError(
                    f"n_shards={n_shards} conflicts with the store's "
                    f"{database.n_shards}-shard partition; rebuild the store "
                    "to re-shard"
                )
            bounds = np.asarray(database.row_offsets, dtype=int)
        else:
            if isinstance(database, FeatureDatabase):
                vectors = database.vectors
            else:
                vectors = np.atleast_2d(np.asarray(database, dtype=float))
            # Stored once, C-contiguous float64: shards are then
            # contiguous row views and the distance kernels never
            # re-convert or copy the database on the hot path.
            vectors = np.ascontiguousarray(vectors, dtype=float)
            if vectors.shape[0] == 0:
                raise ValueError("cannot serve an empty database")
            self._vectors = vectors
            n_rows, dimension = vectors.shape
            bounds = None
        if scan_backend == "processes" and self._feature_store is None:
            raise ValueError(
                "scan_backend='processes' requires a FeatureStore database "
                "(worker processes mmap the store file)"
            )
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self._n_rows = n_rows
        self._dimension = dimension
        self.scan_backend = scan_backend
        self._dataset_fingerprint: Optional[str] = (
            self._feature_store.fingerprint if self._feature_store is not None else None
        )
        self.k = min(k, n_rows)
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.policy = DegradationPolicy(
            soft_deadline_s=soft_deadline_s, trip_after=deadline_trip
        )
        self.resilience = resilience if resilience is not None else ResiliencePolicy()
        self.store = SessionStore(
            capacity=capacity,
            ttl_seconds=ttl_seconds,
            checkpoint_dir=checkpoint_dir,
            method_factory=method_factory,
            metrics=self.metrics,
            retry=self.resilience.retry,
            dimension=self._dimension,
        )
        self.cache = ResultCache(cache_size)
        self._method_factory = method_factory
        # One tree serves the index path and the ANN tier (a
        # store-backed service materializes the matrix once for it).
        tree = HybridTree(self.vectors) if use_index or ann else None
        self._tree = tree if use_index else None
        self._ann = tree if ann else None
        if self._ann is not None:
            self._ann.calibrate()
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 1)
        if self._feature_store is not None:
            # The store file *is* the shard partition: worker processes
            # (and the thread path) scan its blocks in place.
            n_shards = self._feature_store.n_shards
        elif n_shards is None:
            n_shards = max(1, min(max_workers, n_rows // _MIN_SHARD_ROWS))
        if n_shards < 1:
            raise ValueError(f"n_shards must be at least 1, got {n_shards}")
        if bounds is None:
            bounds = np.linspace(0, n_rows, n_shards + 1, dtype=int)
        self._bounds = bounds
        self._n_shards = int(n_shards)
        # In-memory databases keep persistent row views so the
        # progressive scan's per-matrix contexts stay warm across
        # queries; store shards get the same id-stability from the
        # store's memoized block views.
        self._shards: Optional[List[np.ndarray]] = (
            [self._vectors[bounds[i] : bounds[i + 1]] for i in range(n_shards)]
            if self._feature_store is None
            else None
        )
        # Global row id of each shard's first row: per-shard top-k
        # results are translated back to database ids before merging.
        self._shard_offsets: List[int] = [int(b) for b in bounds[:-1]]
        self._executor: Optional[ThreadPoolExecutor] = None
        self._pool: Optional[ShardWorkerPool] = None
        if scan_backend == "processes":
            assert self._feature_store is not None
            self._pool = ShardWorkerPool(
                self._feature_store.path,
                n_workers=min(max_workers, self._n_shards),
            )
        elif self._n_shards > 1:
            self._executor = ThreadPoolExecutor(
                max_workers=min(max_workers, self._n_shards),
                thread_name_prefix="repro-rank",
            )
        self._clock = time.monotonic
        self.slo = slo if slo is not None else SLOTracker(clock=self._clock)
        # Per-session tenant labels (fair queueing on the batching
        # executor); sessions created without a tenant ride "default".
        self._session_tenants: Dict[str, str] = {}
        self._batching: Optional[BatchingExecutor] = None
        if batching:
            config = (
                batching if isinstance(batching, BatchingConfig) else BatchingConfig()
            )
            self._batching = BatchingExecutor(
                self._execute_batch,
                fallback=self._batch_fallback,
                shed_to=self._shed_to_ann if self._ann is not None else None,
                config=config,
                leaders=max_workers,
                metrics=self.metrics,
                clock=self._clock,
            )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of served database objects."""
        return self._n_rows

    @property
    def dimension(self) -> int:
        """Feature dimensionality of the served collection."""
        return self._dimension

    @property
    def n_shards(self) -> int:
        """Shards the parallel scan path fans out over."""
        return self._n_shards

    @property
    def vectors(self) -> np.ndarray:
        """The full feature matrix.

        In-memory databases hold it outright; a store-backed service
        materializes it lazily (one concatenating copy of the mmap'd
        shards) and only for *row* access — query-by-id, feedback rows,
        index construction.  The scan hot path never calls this: shards
        are served as zero-copy views straight from the store file.
        """
        if self._vectors is None:
            assert self._feature_store is not None
            self._vectors = self._feature_store.as_array()
        return self._vectors

    def __enter__(self) -> "RetrievalService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def shutdown(self) -> None:
        """Release the ranking pools (sessions stay restorable)."""
        if self._batching is not None:
            # Drain queued micro-batches before the scan pools go away.
            self._batching.shutdown()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self._pool is not None:
            self._pool.shutdown()

    @property
    def batching(self) -> Optional[BatchingExecutor]:
        """The batching executor, or ``None`` when batching is off."""
        return self._batching

    @property
    def ann_tree(self) -> Optional[HybridTree]:
        """The approximate tier's calibrated tree, or ``None`` without one."""
        return self._ann

    # ------------------------------------------------------------------
    # The service API
    # ------------------------------------------------------------------

    def create_session(
        self,
        query: Union[int, Sequence[float], np.ndarray],
        *,
        session_id: Optional[str] = None,
        tenant: Optional[str] = None,
    ) -> str:
        """Open a feedback session; returns its id.

        Args:
            query: a database row index (query-by-id) or an explicit
                feature vector (query-by-example).
            session_id: caller-chosen id; defaults to a fresh UUID hex.
            tenant: fair-queueing label for the batching executor
                (sessions of one tenant share one FIFO lane); only
                meaningful when the service batches.
        """
        with activate(self.tracer), self.tracer.span("create_session") as span, self.metrics.time("create"):
            if isinstance(query, (int, np.integer)):
                if not 0 <= int(query) < self.size:
                    raise IndexError(f"query id {query} out of range")
                point = self.vectors[int(query)]
            else:
                point = np.asarray(query, dtype=float)
                if point.ndim != 1 or point.shape[0] != self._dimension:
                    raise ValueError(
                        f"query vector must have shape ({self._dimension},), "
                        f"got {point.shape}"
                    )
                if not np.all(np.isfinite(point)):
                    raise ValueError("query vector must be finite")
            if session_id is None:
                session_id = uuid.uuid4().hex
            elif session_id in self.store:
                raise ValueError(f"session id {session_id!r} already exists")
            method = self._method_factory()
            session = ManagedSession(
                session_id=session_id,
                method=method,
                query=method.start(point),
                guard=SessionGuard(self.policy),
                genesis=np.array(point, dtype=float, copy=True),
            )
            self.store.put(session)
            if tenant is not None:
                self._session_tenants[session_id] = str(tenant)
            self.metrics.increment("sessions_created")
            span.set("session_id", session_id)
        return session_id

    def tenant_of(self, session_id: str) -> str:
        """The fair-queueing tenant label of a session (``"default"``
        when the session was opened without one)."""
        return self._session_tenants.get(session_id, "default")

    def query(
        self,
        session_id: str,
        k: Optional[int] = None,
        *,
        approximate: bool = False,
    ) -> ResultPage:
        """Current ranked result page for a session (cached).

        Args:
            k: page size override.
            approximate: serve this request from the ANN tier (requires
                the service to have one); the page comes back stamped
                ``approximate`` with its estimated recall.
        """
        k = self._clamp_k(k)
        if approximate and self._ann is None:
            raise ValueError("approximate serving requires the ANN tier (ann=True)")
        start = self._clock()
        with activate(self.tracer), self.tracer.span(
            "query", session_id=session_id, k=k
        ):
            try:
                budget = self.resilience.budget(clock=self._clock)
                with self.store.lease(session_id) as session:
                    with self.metrics.time("query"):
                        page = self._rank(session, k, budget, approximate=approximate)
            except BaseException:
                self.slo.observe(
                    "query",
                    self._clock() - start,
                    tenant=self.tenant_of(session_id),
                    error=True,
                )
                raise
        self.slo.observe(
            "query",
            self._clock() - start,
            tenant=self.tenant_of(session_id),
            exact=page.quality.is_exact,
        )
        self.metrics.increment("queries")
        return page

    def feedback(
        self,
        session_id: str,
        relevant_ids: Sequence[int],
        scores: Optional[Sequence[float]] = None,
        k: Optional[int] = None,
        *,
        approximate: bool = False,
    ) -> ResultPage:
        """Absorb one round of judgments; returns the refreshed page.

        Args:
            relevant_ids: database ids the user marked relevant.
            scores: optional per-id relevance scores.
            k: page size for the refreshed ranking.
            approximate: serve the refreshed page from the ANN tier
                (requires the service to have one).
        """
        k = self._clamp_k(k)
        if approximate and self._ann is None:
            raise ValueError("approximate serving requires the ANN tier (ann=True)")
        ids = [int(i) for i in relevant_ids]
        for image_id in ids:
            if not 0 <= image_id < self.size:
                raise IndexError(f"image id {image_id} out of range")
        start = self._clock()
        with activate(self.tracer), self.tracer.span(
            "feedback", session_id=session_id, n_relevant=len(ids), k=k
        ) as span:
            try:
                budget = self.resilience.budget(clock=self._clock)
                with self.store.lease(session_id) as session:
                    with self.metrics.time("feedback"):
                        if session.pending_reasons:
                            # These judgments were formed on a degraded page,
                            # so the feedback trajectory is now influenced by
                            # the lost coverage: the session stays marked
                            # from here on.
                            session.provenance = tuple(
                                dict.fromkeys(
                                    session.provenance + session.pending_reasons
                                )
                            )
                            session.pending_reasons = ()
                        if ids:
                            session.query = session.method.feedback(
                                self.vectors[ids], scores
                            )
                        session.iteration += 1
                        if session.guard is not None:
                            session.guard.reset_for_new_query()
                        self.cache.invalidate(session_id)
                    with self.metrics.time("query"):
                        page = self._rank(session, k, budget, approximate=approximate)
                    span.set("iteration", session.iteration)
            except BaseException:
                self.slo.observe(
                    "feedback",
                    self._clock() - start,
                    tenant=self.tenant_of(session_id),
                    error=True,
                )
                raise
        self.slo.observe(
            "feedback",
            self._clock() - start,
            tenant=self.tenant_of(session_id),
            exact=page.quality.is_exact,
        )
        self.metrics.increment("feedbacks")
        return page

    def close(self, session_id: str) -> None:
        """End a session, dropping its state, checkpoint and cache."""
        if not self.store.remove(session_id):
            raise SessionNotFound(session_id)
        self._session_tenants.pop(session_id, None)
        self.cache.invalidate(session_id)
        self.metrics.increment("sessions_closed")

    def metrics_snapshot(self) -> dict:
        """Operational snapshot: counters, latencies, cache, store."""
        snapshot = self.metrics.snapshot()
        snapshot["store"] = {
            "live_sessions": len(self.store),
            "archived_sessions": len(self.store.archived_ids),
            "capacity": self.store.capacity,
        }
        snapshot["cache"] = {
            "pages": len(self.cache),
            "capacity": self.cache.capacity,
            "hit_rate": self.cache.hit_rate,
            "corruptions": self.cache.corruptions,
        }
        snapshot["kernels"] = default_kernel_cache().stats()
        if self._feature_store is not None:
            feature = self._feature_store.stats()
            feature["fingerprint"] = self._feature_store.fingerprint
            snapshot["feature_store"] = feature
        if self._pool is not None:
            snapshot["worker_pool"] = self._pool.stats()
        if self._batching is not None:
            snapshot["batching"] = self._batching.stats()
        if self._ann is not None:
            snapshot["ann"] = self._ann.stats()
        snapshot["slo"] = self.slo.snapshot()
        return snapshot

    def prometheus_metrics(self) -> str:
        """The operational snapshot in Prometheus text format (v0.0.4).

        Includes span/event aggregates when the service was built with a
        recording tracer.
        """
        return prometheus_text(self.metrics_snapshot(), tracer=self.tracer)

    # ------------------------------------------------------------------
    # Ranking internals
    # ------------------------------------------------------------------

    def _clamp_k(self, k: Optional[int]) -> int:
        if k is None:
            return self.k
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        return min(k, self.size)

    def _rank(
        self,
        session: ManagedSession,
        k: int,
        budget: DeadlineBudget,
        approximate: bool = False,
    ) -> ResultPage:
        if approximate:
            # The ANN path bypasses the result cache in both directions:
            # approximate pages are never stored (a later exact request
            # must not replay them), and an approximate request computes
            # fresh rather than borrowing a cached exact page — the
            # caller asked for the cheap tier's latency profile, and a
            # page's provenance should describe how it was produced.
            ids, distances, reasons = self._ann_scan(session.query, k, budget)
        else:
            key = fingerprint_query(session.query, k, scope=self._dataset_fingerprint)
            # The cache is an optimization: any failure inside it (including
            # an injected one) is just a miss, never a failed query.
            cached = None
            try:
                cached = self.cache.get(key)
            except Exception:
                self.metrics.increment("cache_errors")
                add_event("result_cache", outcome="error")
            if cached is not None:
                self.metrics.increment("cache_hits")
                add_event("result_cache", outcome="hit")
                ids, distances = cached
                reasons = ()
            else:
                self.metrics.increment("cache_misses")
                add_event("result_cache", outcome="miss")
                ids, distances, reasons = self._compute_rank(session, k, budget)
                if not reasons:
                    # Only exact pages are cached — a later hit must never
                    # replay a transient coverage loss.
                    try:
                        self.cache.put(key, ids, distances, owner=session.session_id)
                    except Exception:
                        self.metrics.increment("cache_errors")
        if reasons:
            session.pending_reasons = tuple(
                dict.fromkeys(session.pending_reasons + reasons)
            )
        quality = self._quality(session, reasons)
        if quality.is_exact:
            self.metrics.increment("results_exact")
        elif quality.is_approximate:
            self.metrics.increment("results_approximate")
            add_event(
                "result_quality",
                level=quality.level,
                reasons=",".join(quality.reasons),
                estimated_recall=quality.estimated_recall,
            )
        else:
            self.metrics.increment("results_degraded")
            for reason in quality.reasons:
                self.metrics.increment(f"degraded_reason_{reason}")
            add_event(
                "result_quality",
                level=quality.level,
                reasons=",".join(quality.reasons),
            )
        return ResultPage(
            ids=ids,
            distances=distances,
            iteration=session.iteration,
            quality=quality,
        )

    def _quality(
        self, session: ManagedSession, reasons: Tuple[str, ...] = ()
    ) -> ResultQuality:
        """The page's provenance: sticky session reasons plus this scan's.

        Reasons drawn entirely from the ANN tags stamp the page
        ``approximate`` with the tree's calibrated recall, as measured
        (1.0 for a pure ``ann_fallback``, or for a checkpointed ANN
        session restored into a service built without the tier — the
        content is exact, the stamp is the conservative claim).  Any
        non-ANN tag means coverage or state was actually lost, and
        degradation dominates: the page is ``degraded`` carrying every
        tag.
        """
        combined = tuple(dict.fromkeys(session.provenance + tuple(reasons)))
        if not combined:
            return EXACT_QUALITY
        if all(tag in _ANN_TAGS for tag in combined):
            recall = self._ann.calibrated_recall if self._ann is not None else None
            if "ann" not in combined or recall is None:
                recall = 1.0
            return ResultQuality.approximate(recall, *combined)
        return ResultQuality.degraded(*combined)

    def _kernel_cache_event(self, event: str) -> None:
        self.metrics.increment(f"kernel_cache_{event}")

    def _compile(
        self, query: QueryLike, budget: Optional[DeadlineBudget]
    ) -> CompiledQuery:
        """The query's compiled distance kernels, retried under ``budget``.

        Compiled at most once per ranking: the index path, every shard
        of the exact scan and any later page fetch for this query reuse
        the same evaluators (shared process-wide, content-addressed by
        cluster state, so sessions asking the same question share them
        too).  Compilation is a pure function of the cluster state, so
        transient failures retry with backoff under the request budget.
        """

        def on_retry(attempt: int, error: BaseException) -> None:
            self.metrics.increment("compile_retries")
            add_event("retry", stage="compile", attempt=attempt, error=repr(error))

        return retry_call(
            lambda: ensure_compiled(
                query,
                on_event=self._kernel_cache_event,
                scope=self._dataset_fingerprint,
            ),
            self.resilience.retry,
            deadline=budget,
            on_retry=on_retry,
        )

    def _compute_rank(self, session: ManagedSession, k: int, budget: DeadlineBudget):
        compiled = self._compile(session.query, budget)
        guard = session.guard
        if self._tree is not None and (guard is None or not guard.active):
            if session.searcher is None:
                session.searcher = MultipointSearcher(self._tree)
            start = self._clock()
            with self.tracer.span("scan", path="index", k=k) as span:
                result = None
                try:
                    result = session.searcher.search(session.query, k)
                except Exception:
                    span.set("error", True)
                    self.metrics.increment("degraded_error")
                    if guard is not None:
                        guard.record_error()
            if result is not None:
                elapsed = self._clock() - start
                self.metrics.observe("index_search", elapsed)
                self.metrics.increment(
                    "index_node_accesses", result.cost.node_accesses
                )
                self.metrics.increment("index_io_accesses", result.cost.io_accesses)
                if result.cost.candidates_pruned:
                    self.metrics.increment(
                        "candidates_pruned", result.cost.candidates_pruned
                    )
                self.metrics.increment(
                    "candidates_refined", result.cost.distance_evaluations
                )
                if guard is not None and guard.record_elapsed(elapsed):
                    self.metrics.increment("degraded_deadline")
                return result.indices, result.distances, ()
        path = "fallback" if self._batching is None else "batched"
        with self.tracer.span("scan", path=path, k=k, shards=self.n_shards):
            with self.metrics.time("fallback_scan"):
                self.metrics.increment("fallback_scans")
                self.metrics.increment(
                    "fallback_node_accesses",
                    -(-self.size // page_capacity_for(self._dimension)),
                )
                if self._batching is not None:
                    return self._batching.submit(
                        session.query,
                        compatibility_key(compiled, self._dataset_fingerprint),
                        k,
                        tenant=self.tenant_of(session.session_id),
                        budget=budget,
                    )
                return self._scan([session.query], [k], budget)[0]

    def _shard_array(self, index: int) -> np.ndarray:
        """Shard ``index`` as a scan-ready C-contiguous matrix.

        In-memory: a persistent row view of the float64 matrix.  Store
        backed: the mmap'd float32 block view — CRC-verified on first
        access, and raising :class:`~repro.store.StoreBlockCorrupt` for
        a quarantined block.  Resolved *inside* the retried shard task
        so a corrupt block surfaces through the same failure path as a
        scan error (but, being permanent, skips the backoff).
        """
        if self._shards is not None:
            return self._shards[index]
        assert self._feature_store is not None
        shard = self._feature_store.shard(index)
        # The store hands out verified float32 views; a silent dtype or
        # layout change here would mean a hidden copy on the hot path.
        assert_scan_ready(shard, name=f"shard {index}")
        return shard

    def _pool_trace(self) -> Optional[Dict[str, object]]:
        """The trace context to ship with worker-pool tasks, if any.

        ``None`` (the common case: no recording tracer, or an unsampled
        request) keeps the pool round-trip byte-identical to the
        pre-tracing wire shape; otherwise the ambient span becomes the
        worker-side root's remote parent.
        """
        span = current_span()
        if span is None or not self.tracer.enabled:
            return None
        return {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "sampled": True,
        }

    @staticmethod
    def _graft_worker_spans(spans) -> None:
        """Stitch piggybacked worker span dicts under the ambient span."""
        host = current_span()
        if host is not None and spans:
            host.add_foreign(spans)

    # ------------------------------------------------------------------
    # The approximate tier
    # ------------------------------------------------------------------

    def _ann_scan(
        self, query: QueryLike, k: int, budget: Optional[DeadlineBudget] = None
    ):
        """Top-``k`` from the tree's row-budgeted approximate search.

        Returns ``(ids, distances, reasons)`` like the exact scans.  A
        healthy search yields ``("ann",)``.  When the tier itself
        fails (an injected ``index.descend`` fault, a broken leaf), the
        request is re-served by the exact scan and tagged
        ``"ann_fallback"`` on top of whatever the rescue scan reports —
        the page content is then exact, but the stamp says the cheap
        tier misbehaved.
        """
        assert self._ann is not None
        self._compile(query, budget)
        self.metrics.increment("ann_scans")
        start = self._clock()
        with self.tracer.span("scan", path="ann", k=k) as span:
            try:
                result = self._ann.approximate_knn(query, k)
            except Exception as error:
                span.set("error", True)
                self.metrics.increment("ann_fallbacks")
                add_event("ann_fallback", error=repr(error))
                ids, distances, reasons = self._scan([query], [k], budget)[0]
                return ids, distances, reasons + ("ann_fallback",)
            span.set("candidates", result.cost.distance_evaluations)
        self.metrics.observe("ann_search", self._clock() - start)
        self.metrics.increment("ann_node_accesses", result.cost.node_accesses)
        self.metrics.increment("ann_candidates", result.cost.distance_evaluations)
        # Rows the row budget skipped: the approximate tier's own count,
        # kept apart from ``candidates_pruned`` (rows an exact filter
        # proved out of the top k).
        if result.cost.candidates_pruned:
            self.metrics.increment("ann_rows_pruned", result.cost.candidates_pruned)
        self.metrics.increment(
            "candidates_refined", result.cost.distance_evaluations
        )
        return result.indices, result.distances, ("ann",)

    def _shed_to_ann(self, request: BatchRequest):
        """Serve one load-shed batching request from the ANN tier.

        Runs on the submitter's own thread (the executor hands shed
        requests here instead of queueing them), so a congested queue
        sheds real work immediately instead of making it wait.
        """
        return self._ann_scan(request.payload, request.k, request.budget)

    # ------------------------------------------------------------------
    # The exact scan (a solo query is a micro-batch of one)
    # ------------------------------------------------------------------

    def _batch_fallback(self, request: BatchRequest):
        """Serial per-query execution when the batch path fails.

        Lossless by construction: the query rescanned as a batch of one
        produces the byte-identical page, so a fault in the batching
        machinery costs amortization, never correctness.
        """
        return self._scan([request.payload], [request.k], request.budget)[0]

    def _execute_batch(self, requests: List[BatchRequest]):
        """Run one micro-batch (shared compatibility key) end to end."""
        queries = [request.payload for request in requests]
        ks = [request.k for request in requests]
        # The batch fights under the most permissive member budget:
        # retries for shared work should not be cut short by the one
        # stingiest request.  ``None`` means unlimited.
        budget: Optional[DeadlineBudget] = None
        for request in requests:
            if request.budget is None or request.budget.remaining == float("inf"):
                budget = None
                break
            if budget is None or request.budget.remaining > budget.remaining:
                budget = request.budget
        return self._scan(queries, ks, budget)

    def _scan_shard(
        self, index: int, attempt: Callable[[int], Any], budget: DeadlineBudget
    ):
        """One shard's top-k for the whole micro-batch, with bounded retries.

        ``attempt(index)`` scans the shard once (in place or on the
        worker pool).  The ``shard.scan`` fault point fires before every
        attempt.  Scanning a read-only shard is idempotent, so transient
        failures retry with backoff under the budget; permanent errors
        (a CRC-quarantined store block, also when pickled back from a
        worker) skip the backoff.  The final error propagates for
        :meth:`_scan` to absorb as a dropped shard.
        """
        offset = self._shard_offsets[index]

        def fire_and_attempt():
            fault_point(_SITE_SHARD, key=str(offset))
            return attempt(index)

        def on_retry(attempt_no: int, error: BaseException) -> None:
            self.metrics.increment("shard_retries")
            add_event(
                "retry",
                stage="shard_scan",
                shard_offset=offset,
                attempt=attempt_no,
                error=repr(error),
            )

        return retry_call(
            fire_and_attempt, self.resilience.retry, deadline=budget, on_retry=on_retry
        )

    def _scan(
        self,
        queries: Sequence[QueryLike],
        ks: Sequence[int],
        budget: Optional[DeadlineBudget] = None,
    ):
        """Every query's exact top-k, each shard read once for the batch.

        The one exact scan: executor micro-batches and single queries
        (a batch of one) alike.  Shards fan out inline, on the thread
        pool, or to the worker processes; each row's aggregate distance
        depends on that row alone, so merging per-shard candidates in
        shard order under the ``(distance, id)`` tie-break equals the
        single-matrix scan exactly, whatever the backend, the batch
        mates or how much each shard's progressive filter pruned.

        Returns one ``(ids, distances, reasons)`` per query.  A shard
        dropped after its retries degrades every page with
        ``"shard_failed"`` (``"store_block_corrupt"`` for a quarantined
        store block, plus ``"deadline"`` once the budget expired); only
        when every shard fails does the scan itself raise.
        """
        if budget is None:
            budget = DeadlineBudget(None, clock=self._clock)
        pool = self._pool
        if pool is not None:
            # Every shard is in flight before the first is awaited; a
            # retry resubmits only its shard.  Just the encoded queries
            # and the top-k pages cross the process boundary.
            payloads = [encode_query(query) for query in queries]
            trace = self._pool_trace()

            def submit(index: int) -> "Future":
                return pool.submit_batch(index, payloads, ks, trace)

            first = {index: submit(index) for index in range(self._n_shards)}

            def attempt(index: int):
                future = first.pop(index, None)
                result = (future if future is not None else submit(index)).result()
                if trace is None:
                    return result
                result, spans = result
                self._graft_worker_spans(spans)
                return result

        else:

            def attempt(index: int):
                return scan_shard_topk_batch(
                    queries,
                    self._shard_array(index),
                    self._shard_offsets[index],
                    ks,
                )

        shards = range(self._n_shards)
        outcomes: List[Callable[[], Any]]
        if self._executor is None:
            outcomes = [
                functools.partial(self._scan_shard, index, attempt, budget)
                for index in shards
            ]
        else:
            # Each shard task runs under a copy of the caller's context,
            # so spans and events recorded on pool threads attach to
            # this request's trace (a Context can only be entered once).
            outcomes = [
                self._executor.submit(
                    contextvars.copy_context().run,
                    self._scan_shard,
                    index,
                    attempt,
                    budget,
                ).result
                for index in shards
            ]
        failures: List[BaseException] = []
        parts = []  # per surviving shard: one result tuple per query
        for index, outcome in zip(shards, outcomes):
            try:
                parts.append(outcome())
            except Exception as error:
                failures.append(error)
                self.metrics.increment("shard_failures")
                add_event(
                    "shard_failed",
                    shard_offset=self._shard_offsets[index],
                    error=repr(error),
                )
        if not parts:
            # Zero coverage is a failed query, not a silently-empty page.
            assert failures
            raise failures[-1]
        if pool is not None:
            self.metrics.increment("store_block_reads_workers", len(parts))
        shard_tags: List[str] = []
        if failures:
            if budget.expired:
                shard_tags.append("deadline")
            if any(not isinstance(e, StoreBlockCorrupt) for e in failures):
                shard_tags.append("shard_failed")
            if any(isinstance(e, StoreBlockCorrupt) for e in failures):
                shard_tags.append("store_block_corrupt")
        reasons = tuple(shard_tags)
        results = []
        total_pruned = 0
        total_refined = 0
        for position, k in enumerate(ks):
            ids = np.concatenate([part[position][0] for part in parts])
            distances = np.concatenate([part[position][1] for part in parts])
            total_pruned += sum(part[position][2] for part in parts)
            total_refined += sum(part[position][3] for part in parts)
            top = exact_top_k(distances, min(k, ids.shape[0]), tie_break=ids)
            results.append((ids[top], distances[top], reasons))
        if total_pruned:
            self.metrics.increment("candidates_pruned", int(total_pruned))
        self.metrics.increment("candidates_refined", int(total_refined))
        return results

    def scan_batch(
        self,
        queries: Sequence[QueryLike],
        ks: Optional[Sequence[int]] = None,
    ):
        """Synchronously scan an explicit micro-batch (no queueing).

        The deterministic entry point for benchmarks and tests: the
        given queries form exactly one micro-batch regardless of the
        executor's timing knobs, running the same scan every exact page
        goes through.  Returns one ``(ids, distances, reasons)`` tuple
        per query, each byte-identical to scanning that query alone.
        """
        queries = list(queries)
        if ks is None:
            ks_list = [self.k] * len(queries)
        else:
            ks_list = [self._clamp_k(k) for k in ks]
        for query in queries:
            ensure_compiled(query, scope=self._dataset_fingerprint)
        budget = self.resilience.budget(clock=self._clock)
        return self._scan(queries, ks_list, budget)
