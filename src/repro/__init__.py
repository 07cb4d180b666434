"""Qcluster: relevance feedback using adaptive clustering for CBIR.

A full reproduction of Kim & Chung, SIGMOD 2003.  The public API is the
union of the subpackages:

* :mod:`repro.core` — the paper's contribution: adaptive Bayesian
  classification, Hotelling-``T^2`` cluster merging, the disjunctive
  aggregate distance and the :class:`~repro.core.qcluster.QclusterEngine`
  feedback loop.
* :mod:`repro.stats` — from-scratch chi-square/F quantiles, weighted
  moments and Hotelling's two-sample test.
* :mod:`repro.clustering` — agglomerative clustering for the initial
  feedback round.
* :mod:`repro.features` — HSV color moments and GLCM texture extraction.
* :mod:`repro.datasets` — synthetic Gaussian data and the procedural
  image-collection surrogate for Corel/Mantan.
* :mod:`repro.index` — page-bucketed kd tree with cached multipoint k-NN.
* :mod:`repro.retrieval` — databases, simulated users, feedback
  sessions, metrics and batch runners.
* :mod:`repro.baselines` — QPM, QEX, FALCON and MindReader.
* :mod:`repro.service` — the concurrent multi-session retrieval
  service: session store with TTL/LRU eviction and checkpoints, result
  caching, graceful degradation and operational metrics.
* :mod:`repro.obs` — structured tracing across the pipeline: nested
  timed spans with algorithmic events, JSONL / console / Prometheus
  exporters, and a no-op default tracer for production hot paths.
* :mod:`repro.faults` — deterministic, seeded fault injection behind
  named sites, plus the chaos plans the CI resilience suite replays;
  fully inert unless a :class:`~repro.faults.FaultPlan` is activated.
* :mod:`repro.store` — the memory-mapped, content-addressed feature
  store: epoch-stamped header, per-block CRCs, float32 shard blocks
  with optional PCA-prefix coarse companions, quarantine on corruption.
* :mod:`repro.parallel` — spawn-safe worker processes scanning the
  store's shards zero-copy, merged byte-identically to the serial scan.

Quickstart::

    from repro.core import QclusterEngine
    from repro.retrieval import FeatureDatabase, FeedbackSession, QclusterMethod

    database = FeatureDatabase(vectors, labels)
    session = FeedbackSession(database, QclusterMethod(), k=100)
    result = session.run(query_index=0, n_iterations=5)
    print(result.recalls)
"""

from .core import (
    BayesianClassifier,
    Cluster,
    ClusterMerger,
    CompiledQuery,
    DisjunctiveQuery,
    QclusterConfig,
    QclusterEngine,
    compile_query,
    use_kernels,
    use_progressive,
)
from .faults import FaultClock, FaultPlan, FaultSpec, InjectedFault, activate_faults
from .faults.plans import builtin_plan, builtin_plans
from .index import HybridTree, MultipointSearcher
from .obs import (
    NULL_TRACER,
    JsonlTraceLog,
    NullTracer,
    Tracer,
    prometheus_text,
    render_span_tree,
)
from .parallel import ShardWorkerPool
from .retrieval import (
    FeatureDatabase,
    FeedbackMethod,
    FeedbackSession,
    QclusterMethod,
    SimulatedUser,
)
from .retrieval.methods import QueryLike
from .service import (
    CheckpointCorruption,
    ResiliencePolicy,
    RetrievalService,
    ServiceMetrics,
    SessionNotFound,
    SessionStore,
)
from .store import FeatureStore, StoreBlockCorrupt, StoreFormatError, build_store
from .system import EXACT_QUALITY, ImageRetrievalSystem, ResultPage, ResultQuality

__version__ = "1.0.0"

__all__ = [
    "BayesianClassifier",
    "Cluster",
    "ClusterMerger",
    "CompiledQuery",
    "compile_query",
    "use_kernels",
    "use_progressive",
    "DisjunctiveQuery",
    "QclusterConfig",
    "QclusterEngine",
    "HybridTree",
    "MultipointSearcher",
    "FeatureDatabase",
    "FeedbackMethod",
    "FeedbackSession",
    "QclusterMethod",
    "QueryLike",
    "SimulatedUser",
    "RetrievalService",
    "ServiceMetrics",
    "SessionNotFound",
    "SessionStore",
    "CheckpointCorruption",
    "ResiliencePolicy",
    "FaultPlan",
    "FaultSpec",
    "FaultClock",
    "InjectedFault",
    "activate_faults",
    "builtin_plan",
    "builtin_plans",
    "FeatureStore",
    "StoreBlockCorrupt",
    "StoreFormatError",
    "build_store",
    "ShardWorkerPool",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "JsonlTraceLog",
    "render_span_tree",
    "prometheus_text",
    "ImageRetrievalSystem",
    "ResultPage",
    "ResultQuality",
    "EXACT_QUALITY",
    "__version__",
]
