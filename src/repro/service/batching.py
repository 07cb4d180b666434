"""Cross-session micro-batching of compatible in-flight queries.

At millions of users, concurrent sessions hit the same dataset with
structurally similar compiled queries — yet each request scans alone,
re-reading the database from main memory once per query.  This module
adds the missing amortization axis: a :class:`BatchingExecutor`
coalesces compatible in-flight queries into one micro-batch, and the
batched scan (:func:`~repro.core.progressive.progressive_topk_batch` /
:func:`~repro.parallel.scan_shard_topk_batch`) reads each database
tile once per *batch* instead of once per *query*, turning a
memory-bound pass into a cache-hot stacked evaluation.

Compatibility is explicit and conservative: only requests sharing a
:func:`compatibility_key` — same store fingerprint/dataset scope, same
dimensionality, same covariance-scheme shape (the sorted kernel kinds
of the compiled query) — ride in one micro-batch, so the batch
executor never has to reconcile structurally different scans.

**Exactness contract.**  Batching changes *when* a query runs and what
else shares its database pass — never its result.  Exact distances are
always computed through each query's own compiled kernels (whose
row-subset evaluations are bitwise identical regardless of what else
is in the batch); cross-query work sharing happens only in the
slack-protected level-0 bounds.  Every page is therefore byte-identical
to per-query serial execution under the shared ``(distance, id)``
tie-break.

**Leader/follower dispatch.**  No dispatcher thread, no collection
window: while a submitter's request is queued and one of ``leaders``
slots is free, the submitter takes the slot and runs the *oldest*
queued request's micro-batch on its own thread.  A lone request is
scanned at once by the thread that asked for it; requests arriving
while every slot is busy ride the next batch, so batches grow exactly
when the scan is the bottleneck.

**Flow control.**  Two mechanisms keep the executor well-behaved under
heavy load, neither of which drops a request:

* *admission/backpressure* — at most ``max_pending`` queued requests;
  further submitters block (which in the HTTP front-end translates to
  admission control at the socket);
* *load shedding* — past ``shed_threshold`` queued requests, new
  arrivals never enqueue: the ``shed_to`` handler (the engine wires
  its ANN tier, so shedding requires one) serves them immediately on
  the submitter's own thread by the tree's row-budgeted approximate
  search, page stamped
  ``ResultQuality(approximate, estimated_recall=...)`` — announced,
  never dropped.

Per-tenant fairness is round-robin over tenant FIFO queues, so one
chatty tenant cannot starve the rest; within a tenant, order is
preserved.
"""

from __future__ import annotations

import contextvars
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from ..core.kernels import CompiledQuery
from ..faults.inject import fault_point, register_site
from ..obs import add_event, current_span, current_tracer
from ..obs.slo import LatencyHistogram
from .metrics import percentile
from .resilience import DeadlineBudget

__all__ = [
    "BatchingConfig",
    "BatchRequest",
    "BatchingExecutor",
    "compatibility_key",
]

_SITE_BATCH = register_site(
    "batch.execute", "one coalesced micro-batch scan on the batching executor"
)

#: Recent batch sizes feeding the stats percentiles.
_SIZE_RESERVOIR = 1024


def compatibility_key(compiled: CompiledQuery, scope: Optional[str] = None) -> Tuple:
    """The coalescing key of one compiled query.

    Two requests may share a micro-batch only when their keys are equal:
    same dataset scope (store fingerprint — batching across epochs would
    scan the wrong bytes for someone), same dimensionality, and the same
    covariance-scheme shape, expressed as the sorted multiset of
    compiled kernel kinds (e.g. all-Cholesky vs mixed diagonal).
    """
    kinds = tuple(sorted(type(kernel).__name__ for kernel in compiled.kernels))
    return (scope, compiled.dimension, kinds)


@dataclass(frozen=True)
class BatchingConfig:
    """Knobs of the batching executor.

    Attributes:
        max_batch: micro-batch size cap.
        max_pending: admission-control bound on queued requests;
            further submitters block until the queue drains.
        shed_threshold: queue depth at which new arrivals are served
            inline by the executor's ``shed_to`` handler instead of
            queueing (``None`` disables shedding).  Must be below
            ``max_pending``: submitters block at ``max_pending``, so a
            deeper threshold could never fire.
    """

    max_batch: int = 32
    max_pending: int = 256
    shed_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be at least 1, got {self.max_batch}")
        if self.max_pending < 1:
            raise ValueError(
                f"max_pending must be at least 1, got {self.max_pending}"
            )
        if self.shed_threshold is not None:
            if self.shed_threshold < 1:
                raise ValueError(
                    f"shed_threshold must be at least 1, got {self.shed_threshold}"
                )
            if self.shed_threshold >= self.max_pending:
                raise ValueError(
                    f"shed_threshold ({self.shed_threshold}) must be below "
                    f"max_pending ({self.max_pending}): submitters block at "
                    "max_pending, so the threshold could never be reached"
                )


@dataclass
class BatchRequest:
    """One in-flight query waiting on (or riding in) a micro-batch.

    The executor treats ``payload`` and the eventual ``result`` as
    opaque — the engine decides what a request carries and what a scan
    returns.
    """

    payload: Any
    key: Tuple
    k: int
    tenant: str = "default"
    budget: Optional[DeadlineBudget] = None
    arrival: float = 0.0
    #: Still waiting in its tenant queue (cleared at collection).
    queued: bool = False
    context: Optional[contextvars.Context] = None
    #: The submitter's open span (if any) — the batch span links back to
    #: it so a coalesced request's trace shows the shared database pass.
    origin: Any = None
    #: Enqueue-to-dispatch wait in seconds, stamped at collection time.
    queue_wait: float = 0.0
    result: Any = None
    error: Optional[BaseException] = None
    done: threading.Event = field(default_factory=threading.Event)


class BatchingExecutor:
    """Coalesces compatible requests into micro-batches led by submitters.

    Args:
        execute: ``(requests) -> results`` — runs one micro-batch (every
            request shares a compatibility key) and returns one result
            per request, in order.  Runs on the leading submitter's
            thread under the batch's oldest request's submission
            context, so ambient tracing and fault activation flow
            through.
        fallback: ``(request) -> result`` — per-request serial execution
            used when the batch path fails; keeps faults in the batch
            machinery lossless (pages stay byte-identical, only slower).
        shed_to: ``(request) -> result`` — immediate service for
            requests arriving past ``shed_threshold``; runs on the
            submitter's thread, bypassing the queue entirely (the
            engine wires the ANN tier here).  Required whenever
            ``config.shed_threshold`` is set.
        config: the flow-control knobs.
        leaders: how many batches may run at once, each on the thread
            of the submitter leading it.
        metrics: optional :class:`~repro.service.metrics.ServiceMetrics`
            receiving ``batches``/``batched_queries``/``batch_shed``/
            ``batch_fallbacks`` counters.
        clock: injectable monotonic clock (arrival and queue-wait
            stamps).

    Each queued request's submitter stays in :meth:`submit`, leading
    whenever a slot is free, until that request is served: the queue
    drains without a thread of its own, so a submitter blocked at
    admission can never deadlock it.
    """

    def __init__(
        self,
        execute: Callable[[List[BatchRequest]], Sequence[Any]],
        *,
        fallback: Optional[Callable[[BatchRequest], Any]] = None,
        shed_to: Optional[Callable[[BatchRequest], Any]] = None,
        config: Optional[BatchingConfig] = None,
        leaders: int = 1,
        metrics=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        config = config or BatchingConfig()
        if config.shed_threshold is not None and shed_to is None:
            raise ValueError(
                "shed_threshold needs a shed_to target to serve shed requests "
                "(RetrievalService wires its ANN tier: pass ann=True)"
            )
        if leaders < 1:
            raise ValueError(f"leaders must be at least 1, got {leaders}")
        self._execute = execute
        self._fallback = fallback
        self._shed_to = shed_to
        self.config = config
        self._metrics = metrics
        self._clock = clock
        self._leaders = int(leaders)
        self._cond = threading.Condition()
        self._queues: "OrderedDict[str, Deque[BatchRequest]]" = OrderedDict()
        self._pending = 0
        self._leading = 0
        self._last_tenant: Optional[str] = None
        self._closed = False
        # Stats (all under _cond's lock).
        self._submitted = 0
        self._batches = 0
        self._batched_queries = 0
        self._shed = 0
        self._fallbacks = 0
        self._peak_pending = 0
        self._served_by_tenant: Dict[str, int] = {}
        self._recent_sizes: Deque[int] = deque(maxlen=_SIZE_RESERVOIR)
        # Per-tenant enqueue->dispatch waits.  A fairness regression
        # shows up here long before batch sizes move.
        self._wait_by_tenant: Dict[str, LatencyHistogram] = {}

    # ------------------------------------------------------------------
    # Submission side
    # ------------------------------------------------------------------

    def submit(
        self,
        payload: Any,
        key: Tuple,
        k: int,
        *,
        tenant: str = "default",
        budget: Optional[DeadlineBudget] = None,
    ) -> Any:
        """Enqueue one request and block until its micro-batch served it.

        While the request waits and a leader slot is free, this thread
        leads the oldest queued request's batch itself.  Raises
        whatever the scan raised for this request.  Blocks at admission
        while ``max_pending`` requests are already queued.
        A request arriving past ``shed_threshold`` never enqueues: it
        is served by the ``shed_to`` handler on this thread and returns
        (or raises) immediately, leaving a ``batch_shed`` event on the
        submitter's span.
        """
        request = BatchRequest(payload=payload, key=key, k=int(k), tenant=tenant, budget=budget)
        request.context = contextvars.copy_context()
        request.origin = current_span()
        with self._cond:
            if self._closed:
                raise RuntimeError("BatchingExecutor is shut down")
            while self._pending >= self.config.max_pending:
                self._cond.wait()
                if self._closed:
                    raise RuntimeError("BatchingExecutor is shut down")
            request.arrival = self._clock()
            self._submitted += 1
            threshold = self.config.shed_threshold
            queue_depth = self._pending
            shed = threshold is not None and queue_depth >= threshold
            if shed:
                # The congested queue never sees the request: it is
                # served inline below, outside the lock, on this thread.
                self._shed += 1
                if self._metrics is not None:
                    self._metrics.increment("batch_shed")
            else:
                queue = self._queues.get(tenant)
                if queue is None:
                    queue = deque()
                    self._queues[tenant] = queue
                queue.append(request)
                request.queued = True
                self._pending += 1
                self._peak_pending = max(self._peak_pending, self._pending)
        if shed:
            assert self._shed_to is not None
            add_event("batch_shed", queue_depth=queue_depth, threshold=threshold)
            return self._shed_to(request)
        self._lead_until_taken(request)
        request.done.wait()
        if request.error is not None:
            raise request.error
        return request.result

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------

    def _lead_until_taken(self, request: BatchRequest) -> None:
        """Lead batches on this thread until some batch takes ``request``
        (a batch led here need not include it)."""
        while True:
            with self._cond:
                while request.queued and self._leading >= self._leaders:
                    self._cond.wait()
                if not request.queued:
                    return
                batch = self._take_batch()
                self._leading += 1
            try:
                self._run_batch(batch)
            finally:
                with self._cond:
                    self._leading -= 1
                    self._cond.notify_all()

    def _take_batch(self) -> List[BatchRequest]:
        """Pop the oldest queued request's batch (caller holds the lock).

        Up to ``max_batch`` requests sharing its key, round-robin over
        tenants starting after the last-served tenant; only queue
        *fronts* are eligible (per-tenant FIFO order is never
        reordered), so an incompatible front parks that tenant for this
        batch but costs it nothing later.
        """
        # Empty tenant queues are dropped, so every queue has a front.
        key = min((queue[0] for queue in self._queues.values()), key=lambda r: r.arrival).key
        tenants = list(self._queues.keys())
        start = 0
        if self._last_tenant in tenants:
            start = (tenants.index(self._last_tenant) + 1) % len(tenants)
        rotation = tenants[start:] + tenants[:start]
        batch: List[BatchRequest] = []
        now = self._clock()
        progressed = True
        while progressed and len(batch) < self.config.max_batch:
            progressed = False
            for tenant in rotation:
                queue = self._queues.get(tenant)
                if not queue or queue[0].key != key:
                    continue
                request = queue.popleft()
                request.queued = False
                request.queue_wait = max(0.0, now - request.arrival)
                wait = self._wait_by_tenant.get(tenant)
                if wait is None:
                    wait = self._wait_by_tenant[tenant] = LatencyHistogram()
                wait.observe(request.queue_wait)
                batch.append(request)
                self._last_tenant = tenant
                self._served_by_tenant[tenant] = (
                    self._served_by_tenant.get(tenant, 0) + 1
                )
                progressed = True
                if len(batch) >= self.config.max_batch:
                    break
        for tenant in [name for name, queue in self._queues.items() if not queue]:
            del self._queues[tenant]
        self._pending -= len(batch)
        self._batches += 1
        self._batched_queries += len(batch)
        self._recent_sizes.append(len(batch))
        self._cond.notify_all()  # admission waiters: the queue shrank
        return batch

    def _run_batch(self, batch: List[BatchRequest]) -> None:
        leader = batch[0]
        context = leader.context or contextvars.copy_context()
        try:
            context.run(self._run_batch_in_context, batch)
        finally:
            for request in batch:
                request.done.set()

    def _run_batch_in_context(self, batch: List[BatchRequest]) -> None:
        if self._metrics is not None:
            self._metrics.increment("batches")
            self._metrics.increment("batched_queries", len(batch))
        with current_tracer().span(
            "batch", size=len(batch), tenants=len({r.tenant for r in batch})
        ) as batch_span:
            # Cross-link every member with the shared pass: the batch
            # span lists who rode along (and how long each waited), and
            # each member's own span gets a link back to the batch — so
            # a coalesced request's trace shows both its wait and the
            # one database pass it shared.
            if getattr(batch_span, "span_id", None) is not None:
                for request in batch:
                    origin = request.origin
                    if origin is None:
                        continue
                    batch_span.event(
                        "batch_member",
                        tenant=request.tenant,
                        trace_id=origin.trace_id,
                        span_id=origin.span_id,
                        queue_wait_s=request.queue_wait,
                    )
                    origin.event(
                        "batch_link",
                        batch_trace_id=batch_span.trace_id,
                        batch_span_id=batch_span.span_id,
                        size=len(batch),
                        queue_wait_s=request.queue_wait,
                    )
            try:
                fault_point(_SITE_BATCH, key=str(len(batch)))
                results = self._execute(batch)
                if len(results) != len(batch):
                    raise RuntimeError(
                        f"batch execute returned {len(results)} results "
                        f"for {len(batch)} requests"
                    )
                for request, result in zip(batch, results):
                    request.result = result
            except BaseException as error:
                self._recover(batch, error)

    def _recover(self, batch: List[BatchRequest], error: BaseException) -> None:
        """Lossless per-request fallback when the batch path fails."""
        with self._cond:
            self._fallbacks += len(batch)
        if self._metrics is not None:
            self._metrics.increment("batch_fallbacks", len(batch))
        if self._fallback is None:
            for request in batch:
                request.error = error
            return
        for request in batch:
            try:
                request.result = self._fallback(request)
                request.error = None
            except BaseException as request_error:
                request.error = request_error

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Requests currently queued (not yet dispatched)."""
        with self._cond:
            return self._pending

    def stats(self) -> Dict[str, Any]:
        """One consistent snapshot of the executor's counters.

        ``{submitted, batches, batched_queries, queue_depth,
        peak_queue_depth, shed, fallbacks, mean_batch_size,
        p50_batch_size, max_batch_size, tenants_served,
        queue_wait_by_tenant}`` — the last maps each tenant to the
        :meth:`~repro.obs.slo.LatencyHistogram.snapshot` of its
        enqueue-to-dispatch waits.
        """
        with self._cond:
            sizes = list(self._recent_sizes)
            queue_wait = {
                tenant: wait.snapshot()
                for tenant, wait in sorted(self._wait_by_tenant.items())
            }
            return {
                "submitted": self._submitted,
                "batches": self._batches,
                "batched_queries": self._batched_queries,
                "queue_depth": self._pending,
                "peak_queue_depth": self._peak_pending,
                "shed": self._shed,
                "fallbacks": self._fallbacks,
                "mean_batch_size": sum(sizes) / len(sizes) if sizes else 0.0,
                "p50_batch_size": percentile(sizes, 50.0) if sizes else 0.0,
                "max_batch_size": float(max(sizes)) if sizes else 0.0,
                "tenants_served": dict(sorted(self._served_by_tenant.items())),
                "queue_wait_by_tenant": queue_wait,
            }

    def shutdown(self) -> None:
        """Reject new submits; return once nothing is queued or leading.

        Queued requests are still served by their own submitters.
        """
        with self._cond:
            self._closed = True
            self._cond.notify_all()
            self._cond.wait_for(lambda: not self._pending and not self._leading)

    def __enter__(self) -> "BatchingExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
