"""Multi-process shard scanning over a memory-mapped feature store.

The GIL caps the thread-sharded scan at roughly one core of NumPy per
request; this module crosses the process boundary without giving up
either zero-copy reads or byte-identical rankings:

* every worker process opens its *own* read-only
  :class:`~repro.store.FeatureStore` over the same file (the OS page
  cache shares the physical pages, so N workers cost one copy of the
  data);
* queries travel as small typed payloads — cluster centers, inverse
  matrices, weights — never as pickled query objects, so the compiled
  kernel memoized on the parent's query instance is not dragged
  through the pickle machinery; each worker compiles into its own
  process-wide kernel cache (compilation is a pure function of the
  cluster state, so every process builds the same evaluators);
* :func:`scan_shard_topk_batch` is the *single* per-shard top-k
  implementation shared by the inline path, the thread pool and the
  process pool — a single query is a batch of one, so there is no
  second scan codepath to drift — and the coordinator merges per-shard
  results in shard order under the ``(distance, id)`` tie-break, so
  the backend choice can never change a ranking, only its wall-clock
  cost.  :meth:`ShardWorkerPool.submit_batch` is the pool's only
  entry.

Workers are spawn-safe: the pool uses the ``spawn`` start method
explicitly, so no fork-inherited locks, mmaps or NumPy thread pools
leak into children on any platform.

Trace propagation rides the existing round-trip: when the coordinator
passes a ``trace`` payload (a
:meth:`~repro.obs.TraceContext.to_dict` dict), the worker records its
scan under a process-local tracer adopted into that context and
returns the finished span dicts beside the results — no new
IPC channel, and the scan arrays themselves are untouched (the
byte-identity guarantee holds with tracing on or off).
"""

from __future__ import annotations

import itertools
import multiprocessing
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.kernels import (
    batched_per_cluster_distances,
    ensure_compiled,
    kernels_enabled,
)
from ..core.progressive import exact_top_k, progressive_topk_batch
from ..datasets.matrix import assert_scan_ready
from ..store import FeatureStore

__all__ = [
    "ShardWorkerPool",
    "encode_query",
    "decode_query",
    "scan_shard_topk",
    "scan_shard_topk_batch",
]


def scan_shard_topk(query, shard: np.ndarray, offset: int, k: int):
    """Exact per-shard top-``k``: ``(global ids, distances, pruned, refined)``.

    One query scanned as a batch of one by :func:`scan_shard_topk_batch`
    — the one scan kernel every backend runs — for single-query callers
    (ground truth, determinism checks).
    """
    return scan_shard_topk_batch([query], shard, offset, [k])[0]


def _full_scan_distances(queries, shard: np.ndarray) -> List[np.ndarray]:
    """Aggregate distances of every row to each full-scan query.

    The full-scan scorer behind :func:`scan_shard_topk_batch`: queries
    the compiled-kernel layer understands share a single tiled pass
    (:func:`~repro.core.kernels.batched_per_cluster_distances`, whose
    tile bounds depend only on the shard geometry — so a query scored
    alone and the same query scored inside a micro-batch make
    identical per-tile kernel calls and return identical bytes);
    anything else falls back to the query's own ``distances`` method.
    """
    compiled_at: List[Optional[int]] = []
    compilable = []
    for query in queries:
        combine = getattr(query, "combine_per_cluster", None)
        if (
            combine is not None
            and getattr(query, "points", None) is not None
            and kernels_enabled()
        ):
            compiled_at.append(len(compilable))
            compilable.append(query)
        else:
            compiled_at.append(None)
    per_cluster = batched_per_cluster_distances(
        [ensure_compiled(query) for query in compilable], shard
    )
    return [
        query.combine_per_cluster(per_cluster[position])
        if position is not None
        else query.distances(shard)
        for query, position in zip(queries, compiled_at)
    ]


def scan_shard_topk_batch(
    queries: Sequence[object],
    shard: np.ndarray,
    offset: int,
    ks: Sequence[int],
) -> List[Tuple[np.ndarray, np.ndarray, int, int]]:
    """Per-shard top-``k`` for a whole micro-batch in one database pass.

    The one per-shard scan kernel (a single query is a batch of one):
    eligible queries share one level-0 filter pass over the shard (see
    :func:`~repro.core.progressive.progressive_topk_batch`), then each
    refines through its own compiled kernels, so every returned page
    is byte-identical to scanning that query alone.  Queries the
    progressive path rejects share one tiled full-scan pass instead
    (or, for query types the kernel layer cannot compile, their own
    ``distances`` method).  Either way each page is the shard's exact
    top-k under the ``(distance, id)`` order.

    Returns one ``(global ids, distances, pruned, refined)`` tuple per
    query.
    """
    ks = [min(int(k), shard.shape[0]) for k in ks]
    batched = progressive_topk_batch(shard, queries, ks)
    rejected = [
        query
        for query, progressive in zip(queries, batched)
        if progressive is None
    ]
    full_scans = iter(_full_scan_distances(rejected, shard))
    results: List[Tuple[np.ndarray, np.ndarray, int, int]] = []
    for _query, k, progressive in zip(queries, ks, batched):
        if progressive is not None:
            results.append(
                (
                    progressive.indices + offset,
                    progressive.distances,
                    progressive.stats.pruned,
                    progressive.stats.refined,
                )
            )
            continue
        distances = next(full_scans)
        top = exact_top_k(distances, k)
        results.append((top + offset, distances[top], 0, shard.shape[0]))
    return results


# ----------------------------------------------------------------------
# Query serialization (typed payloads, pickle only as a last resort)
# ----------------------------------------------------------------------


def encode_query(query) -> Dict[str, Any]:
    """A small, picklable payload reconstructing ``query`` in a worker.

    Known query types (the disjunctive aggregate and the baselines'
    power mean) are flattened to their defining arrays; anything else
    falls back to pickling the object itself.
    """
    from ..baselines.base import PowerMeanQuery
    from ..core.distance import DisjunctiveQuery

    if isinstance(query, DisjunctiveQuery):
        return {
            "kind": "disjunctive",
            "points": [
                (
                    np.asarray(point.center, dtype=float),
                    np.asarray(point.inverse, dtype=float),
                    float(point.weight),
                    None
                    if point.diagonal is None
                    else np.asarray(point.diagonal, dtype=float),
                )
                for point in query.points
            ],
        }
    if isinstance(query, PowerMeanQuery):
        return {
            "kind": "power_mean",
            "centers": np.asarray(query.centers, dtype=float),
            "inverses": tuple(
                np.asarray(inverse, dtype=float) for inverse in query.inverses
            ),
            "weights": np.asarray(query.weights, dtype=float),
            "alpha": float(query.alpha),
        }
    import pickle

    return {"kind": "pickle", "blob": pickle.dumps(query)}


def decode_query(payload: Dict[str, Any]):
    """Inverse of :func:`encode_query`."""
    kind = payload["kind"]
    if kind == "disjunctive":
        from ..core.distance import DisjunctiveQuery, QueryPoint

        return DisjunctiveQuery(
            [
                QueryPoint(center=center, inverse=inverse, weight=weight, diagonal=diagonal)
                for center, inverse, weight, diagonal in payload["points"]
            ]
        )
    if kind == "power_mean":
        from ..baselines.base import PowerMeanQuery

        return PowerMeanQuery(
            centers=payload["centers"],
            inverses=payload["inverses"],
            weights=payload["weights"],
            alpha=payload["alpha"],
        )
    if kind == "pickle":
        import pickle

        return pickle.loads(payload["blob"])
    raise ValueError(f"unknown query payload kind {kind!r}")


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

#: Per-process store handles, keyed by path.  Populated by the pool
#: initializer (and lazily on first use, should a task outlive it).
_WORKER_STORES: Dict[str, FeatureStore] = {}


def _worker_store(store_path: str) -> FeatureStore:
    store = _WORKER_STORES.get(store_path)
    if store is None:
        store = FeatureStore.open(store_path)
        _WORKER_STORES[store_path] = store
    return store


def _pool_initializer(store_path: str) -> None:
    """Open the store once per worker process, before any task runs."""
    _worker_store(store_path)


#: Per-worker-process trace-task counter: each traced task gets its own
#: short-lived tracer, so span ids are made unique per (pid, task) —
#: three shards scanned by one worker must not collide inside a trace.
_TRACE_TASKS = itertools.count(1)


class _WorkerTrace:
    """Context manager recording one worker-side scan span.

    Builds a short-lived process-local tracer adopted into the
    propagated :class:`~repro.obs.TraceContext`, opens a ``scan`` span
    annotated with the worker's identity, and hands the finished span
    dicts back through :attr:`spans` — the payload the task returns
    beside its results for coordinator-side stitching.  Span ids are prefixed
    with the worker pid so they can never collide with coordinator ids
    inside one stitched trace.  A ``None`` trace payload makes the
    whole thing a no-op.
    """

    def __init__(self, trace: Optional[Dict[str, Any]], shard_index: int) -> None:
        self._trace = trace
        self._shard_index = shard_index
        self._stack: Optional[Any] = None
        self._tracer: Optional[Any] = None
        self.spans: List[Dict[str, Any]] = []

    def __enter__(self) -> "_WorkerTrace":
        if self._trace is None:
            return self
        import contextlib
        import os

        from ..obs import TraceContext, Tracer, activate
        from ..obs.distributed import with_trace_context

        self._tracer = Tracer(
            max_traces=4,
            id_prefix=f"w{os.getpid():x}.{next(_TRACE_TASKS):x}.",
        )
        self._stack = contextlib.ExitStack()
        self._stack.enter_context(activate(self._tracer))
        self._stack.enter_context(
            with_trace_context(TraceContext.from_dict(self._trace))
        )
        self._stack.enter_context(
            self._tracer.span(
                "scan", path="worker", shard=self._shard_index, pid=os.getpid()
            )
        )
        return self

    def __exit__(self, *exc_info: Any) -> None:
        if self._stack is None:
            return
        self._stack.close()
        self.spans = self._tracer.traces() if self._tracer is not None else []


def _scan_shard_batch_task(
    store_path: str,
    shard_index: int,
    payloads: Sequence[Dict[str, Any]],
    ks: Sequence[int],
    trace: Optional[Dict[str, Any]] = None,
):
    """A whole micro-batch's top-k over one shard, inside a worker.

    The shard is a zero-copy mmap view (asserted scan-ready: float32,
    C-contiguous — no silent conversion happens between the file and
    the kernels), read once for every query in the batch (see
    :func:`scan_shard_topk_batch`); the queries are rebuilt from their
    payloads and compiled into this process's kernel cache.  Results
    come back as plain tuples in payload order; with a ``trace``
    payload they arrive wrapped as ``(parts, spans)``.  Exceptions —
    including :class:`~repro.store.StoreBlockCorrupt` — pickle back to
    the coordinator intact.
    """
    store = _worker_store(store_path)
    queries = [decode_query(payload) for payload in payloads]
    with _WorkerTrace(trace, shard_index) as recorder:
        for query in queries:
            ensure_compiled(query)
        shard = assert_scan_ready(
            store.shard(shard_index), name=f"shard {shard_index}"
        )
        offset = store.row_offsets[shard_index]
        parts = scan_shard_topk_batch(queries, shard, offset, ks)
    results = [
        (np.asarray(ids), np.asarray(distances), int(pruned), int(refined))
        for ids, distances, pruned, refined in parts
    ]
    if trace is None:
        return results
    return results, recorder.spans


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------


class ShardWorkerPool:
    """A spawn-safe process pool scanning one store's shards.

    Args:
        store_path: the feature-store file every worker mmaps.
        n_workers: worker process count.

    The pool tracks in-flight tasks (the ``repro_worker_pool_busy``
    gauge) and completion/failure totals; :meth:`stats` feeds the
    service metrics snapshot.
    """

    def __init__(self, store_path: Union[str, Path], n_workers: int) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be at least 1, got {n_workers}")
        self.store_path = str(store_path)
        self.n_workers = n_workers
        self._executor: Optional[ProcessPoolExecutor] = None
        # Two locks on purpose: `_lock` guards executor lifecycle —
        # which holds it across a slow worker spawn — while the stats
        # counters live under their own `_stats_lock`, so a concurrent
        # `metrics()` read never blocks behind a spawn nor sees a torn
        # multi-counter snapshot.
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._in_flight = 0
        self._peak_in_flight = 0
        self._completed = 0
        self._failed = 0

    def _ensure_executor(self) -> ProcessPoolExecutor:
        # Lazy: constructing the service should not pay worker spawn
        # cost when no query ever reaches the process backend.
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.n_workers,
                    mp_context=multiprocessing.get_context("spawn"),
                    initializer=_pool_initializer,
                    initargs=(self.store_path,),
                )
            return self._executor

    @property
    def busy(self) -> int:
        """Tasks currently submitted and not yet finished."""
        with self._stats_lock:
            return self._in_flight

    def _track_submit(self, submit) -> "Future":
        with self._stats_lock:
            self._in_flight += 1
            self._peak_in_flight = max(self._peak_in_flight, self._in_flight)
        try:
            future = submit()
        except BaseException:
            with self._stats_lock:
                self._in_flight -= 1
            raise
        future.add_done_callback(self._task_done)
        return future

    def submit_batch(
        self,
        shard_index: int,
        payloads: Sequence[Dict[str, Any]],
        ks: Sequence[int],
        trace: Optional[Dict[str, Any]] = None,
    ) -> "Future":
        """Dispatch one shard scan covering a whole micro-batch.

        The future resolves to one ``(ids, distances, pruned, refined)``
        tuple per payload, in payload order — the shard is read once for
        the whole batch.  With a ``trace`` context dict
        it resolves to ``(parts, spans)`` instead.
        """
        executor = self._ensure_executor()
        return self._track_submit(
            lambda: executor.submit(
                _scan_shard_batch_task,
                self.store_path,
                shard_index,
                list(payloads),
                list(ks),
                trace,
            )
        )

    def _task_done(self, future: "Future") -> None:
        with self._stats_lock:
            self._in_flight -= 1
            if future.cancelled() or future.exception() is not None:
                self._failed += 1
            else:
                self._completed += 1

    def stats(self) -> Dict[str, int]:
        """``{workers, busy, peak_busy, tasks_completed, tasks_failed}``.

        One consistent snapshot: every counter is read under a single
        acquisition of the stats lock, and the lock is never held
        across executor spawn/shutdown, so readers can't observe torn
        values or stall behind pool lifecycle.
        """
        with self._stats_lock:
            return {
                "workers": self.n_workers,
                "busy": self._in_flight,
                "peak_busy": self._peak_in_flight,
                "tasks_completed": self._completed,
                "tasks_failed": self._failed,
            }

    def shutdown(self) -> None:
        """Terminate the worker processes (idempotent)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "ShardWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (
            f"ShardWorkerPool({self.store_path!r}, n_workers={self.n_workers}, "
            f"busy={self.busy})"
        )

