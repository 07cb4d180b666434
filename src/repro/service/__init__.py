"""Service layer: concurrent multi-session retrieval at scale.

Everything below this package exists to make the faithful core
*deployable*: many users, each running the paper's stateful feedback
loop, against one shared collection — without unbounded memory, without
losing feedback state, and without a slow index taking the whole
service down.

* :mod:`~repro.service.engine` — :class:`RetrievalService`, the
  ``create_session / query / feedback / close`` facade with sharded
  parallel ranking.
* :mod:`~repro.service.sessions` — thread-safe :class:`SessionStore`
  with TTL + LRU eviction and persistence-backed checkpoints.
* :mod:`~repro.service.cache` — content-addressed LRU
  :class:`ResultCache` over ranked pages.
* :mod:`~repro.service.degrade` — :class:`DegradationPolicy` /
  :class:`SessionGuard`, falling back to the exact scan on index
  failure or soft-deadline misses.
* :mod:`~repro.service.metrics` — :class:`ServiceMetrics` counters and
  latency percentiles behind a plain-dict snapshot.
* :mod:`~repro.service.resilience` — :class:`ResiliencePolicy` retry /
  deadline discipline for the idempotent stages, with
  :class:`~repro.system.ResultQuality` provenance on every page.
* :mod:`~repro.service.batching` — :class:`BatchingExecutor`, coalescing
  compatible in-flight queries into micro-batches that share one
  database pass, led by the waiting request threads themselves, with
  per-tenant fair queueing and honest load shedding.
* :mod:`~repro.service.server` — :class:`RetrievalServer`, the asyncio
  HTTP front-end with admission control, plus the
  :func:`closed_loop_load` generator.

See ``docs/SERVICE.md`` for the architecture and policies,
``docs/SERVING.md`` for the batching executor and HTTP front-end, and
``docs/RESILIENCE.md`` for the failure model.
"""

from .batching import BatchingConfig, BatchingExecutor, compatibility_key
from .cache import ResultCache, fingerprint_query
from .degrade import EXACT_QUALITY, DegradationPolicy, ResultQuality, SessionGuard
from .engine import RetrievalService
from .metrics import ServiceMetrics, percentile
from .resilience import DeadlineBudget, ResiliencePolicy, RetryPolicy, retry_call
from .server import RetrievalServer, closed_loop_load
from .sessions import (
    CheckpointCorruption,
    ManagedSession,
    SessionNotFound,
    SessionStore,
)

__all__ = [
    "RetrievalService",
    "RetrievalServer",
    "closed_loop_load",
    "BatchingConfig",
    "BatchingExecutor",
    "compatibility_key",
    "SessionStore",
    "ManagedSession",
    "SessionNotFound",
    "CheckpointCorruption",
    "ResultCache",
    "fingerprint_query",
    "DegradationPolicy",
    "SessionGuard",
    "ResultQuality",
    "EXACT_QUALITY",
    "ResiliencePolicy",
    "RetryPolicy",
    "DeadlineBudget",
    "retry_call",
    "ServiceMetrics",
    "percentile",
]
