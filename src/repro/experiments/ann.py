"""Recall-versus-speedup sweep for the ANN tier — the empirical contract.

The spill tree's defeatist search trades exactness for cost, and the
trade is only defensible if it is *measured*: this module owns the
workload that measures it.  A clustered Gaussian collection is queried
through the full Qcluster feedback protocol (``scheme="inverse"``, the
covariance regime the serving stack defaults to for pruning), so the
swept queries are the real production shape — adaptive multi-cluster
disjunctive queries with Mahalanobis-stretched contours, not synthetic
single points.  Every configuration in the sweep is scored on

* **recall@k** against the exact compiled shard scan (mean and worst
  query), the quantity the committed contract floors;
* **speedup** over that same exact scan (wall-clock, best-of-repeats);
* **candidate fraction** — the share of the database the reached
  leaves actually scored, the scale-free cost proxy CI can gate when
  timings cannot be trusted across runners.

``benchmarks/test_ann_recall.py`` runs :func:`run_sweep` at full scale
and writes ``BENCH_ann.json``; ``compare_bench.py --suite ann`` runs
the CI-scale config against the committed floors in
``benchmarks/baselines/ann.json``; ``python -m repro.cli bench`` is the
interactive front-end.  One sweep, three consumers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.config import QclusterConfig
from ..core.distance import DisjunctiveQuery
from ..index.tree import SpillTree, SpillTreeConfig
from ..parallel import scan_shard_topk
from ..retrieval import FeatureDatabase, QclusterMethod, SimulatedUser

__all__ = ["AnnSweepConfig", "run_sweep", "DEFAULT_RULE", "DEFAULT_SPILL"]

#: The operating point the service ships with (``SpillTreeConfig()``)
#: and the committed baseline floors: every sweep must include it.
DEFAULT_RULE = "kd"
DEFAULT_SPILL = 0.3


@dataclass(frozen=True)
class AnnSweepConfig:
    """Workload and sweep knobs.

    The default is the full-scale contract workload (40k rows in 40
    categories, 16-d features, 6 query seeds x 3 feedback rounds);
    :meth:`small` is the CI/smoke scale, shrunk but with leaf capacity
    and ``max_leaves`` re-tuned so the descent still prunes — a tree
    whose leaves swallow the collection would measure nothing.
    """

    n_categories: int = 40
    points_per_category: int = 1000
    dimensions: int = 16
    n_query_seeds: int = 6
    n_rounds: int = 3
    k: int = 20
    seed: int = 7
    scheme: str = "inverse"
    spills: Tuple[float, ...] = (0.0, 0.15, DEFAULT_SPILL)
    rules: Tuple[str, ...] = (DEFAULT_RULE, "rp")
    max_leaves: int = 12
    leaf_capacity: Optional[int] = None  # heuristic: 1024 at 16 dims
    repeats: int = 3

    @classmethod
    def small(cls) -> "AnnSweepConfig":
        """CI scale: ~2.4k rows, small leaves so real splits happen."""
        return cls(
            n_categories=12,
            points_per_category=200,
            n_query_seeds=4,
            leaf_capacity=128,
            max_leaves=8,
            repeats=2,
        )

    @property
    def n(self) -> int:
        return self.n_categories * self.points_per_category

    def tree_config(self, rule: str, spill: float) -> SpillTreeConfig:
        return SpillTreeConfig(
            rule=rule,
            spill=spill,
            leaf_capacity=self.leaf_capacity,
            max_leaves=self.max_leaves,
            seed=0,
        )


def build_database(config: AnnSweepConfig) -> FeatureDatabase:
    """Clustered Gaussian categories, deterministic for ``config.seed``."""
    rng = np.random.default_rng(config.seed)
    centers = 2.0 * rng.standard_normal((config.n_categories, config.dimensions))
    vectors = np.concatenate(
        [
            center
            + 1.5 * rng.standard_normal((config.points_per_category, config.dimensions))
            for center in centers
        ]
    )
    labels = np.repeat(np.arange(config.n_categories), config.points_per_category)
    return FeatureDatabase(vectors, labels)


def harvest_queries(
    database: FeatureDatabase, config: AnnSweepConfig
) -> List[DisjunctiveQuery]:
    """The production query mix: replayed Qcluster feedback sessions.

    Each seed row starts a session; the simulated user judges the exact
    top-k page and the method refits its adaptive clusters, so rounds
    beyond the first contribute genuine multi-cluster disjunctive
    queries under the configured covariance scheme.
    """
    rng = np.random.default_rng(config.seed + 2)
    queries: List[DisjunctiveQuery] = []
    for query_id in rng.integers(0, database.size, size=config.n_query_seeds):
        method = QclusterMethod(QclusterConfig(scheme=config.scheme))
        user = SimulatedUser(database, database.category_of(int(query_id)))
        query = method.start(database.vectors[int(query_id)])
        for _ in range(config.n_rounds):
            queries.append(query)
            ranked = scan_shard_topk(query, database.vectors, 0, config.k)[0]
            judgment = user.judge(ranked)
            if judgment.count == 0:
                break
            query = method.feedback(
                database.vectors[judgment.relevant_indices], judgment.scores
            )
    return queries


def _best_of(callable_, repeats: int) -> float:
    """Minimum wall time of ``callable_`` over ``repeats`` runs."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def run_sweep(config: Optional[AnnSweepConfig] = None) -> Dict:
    """Sweep ``rules x spills``; returns the full result payload.

    The payload's ``configs`` list holds one entry per swept
    configuration — recall (mean / worst query), speedup over the
    exact compiled scan, candidate fraction, node accesses and the
    tree's own build-time ``calibrated_recall`` — and ``default``
    names the entry matching the shipped operating point.
    """
    config = config if config is not None else AnnSweepConfig()
    database = build_database(config)
    vectors = database.vectors
    queries = harvest_queries(database, config)
    k = config.k

    truth = [scan_shard_topk(query, vectors, 0, k)[0] for query in queries]

    def exact_run():
        for query in queries:
            scan_shard_topk(query, vectors, 0, k)

    exact_run()  # warm-up: kernel compile + scan plans
    exact_seconds = _best_of(exact_run, config.repeats)

    entries = []
    default_name = None
    for rule in config.rules:
        for spill in config.spills:
            tree = SpillTree(vectors, config.tree_config(rule, spill))
            # Scored once up front: these results feed the recall and
            # cost metrics *and* warm the kernels before timing.
            results = [tree.defeatist_search(query, k) for query in queries]

            def ann_run(tree=tree):
                for query in queries:
                    tree.defeatist_search(query, k)

            ann_seconds = _best_of(ann_run, config.repeats)
            recalls = [
                len(set(map(int, result.indices)) & set(map(int, true_ids))) / k
                for result, true_ids in zip(results, truth)
            ]
            name = f"{rule}:spill={spill:g}"
            if rule == DEFAULT_RULE and spill == DEFAULT_SPILL:
                default_name = name
            entries.append(
                {
                    "name": name,
                    "rule": rule,
                    "spill": spill,
                    "max_leaves": config.max_leaves,
                    "leaf_capacity": tree.leaf_capacity,
                    "n_leaves": tree.stats()["n_leaves"],
                    "recall_mean": float(np.mean(recalls)),
                    "recall_min": float(min(recalls)),
                    "candidate_fraction": float(
                        np.mean([r.n_candidates for r in results]) / config.n
                    ),
                    "node_accesses_per_query": float(
                        np.mean([r.cost.node_accesses for r in results])
                    ),
                    "calibrated_recall": tree.calibrated_recall,
                    "ann_seconds": ann_seconds,
                    "speedup": exact_seconds / ann_seconds,
                }
            )

    return {
        "n": config.n,
        "p": config.dimensions,
        "k": k,
        "scheme": config.scheme,
        "n_queries": len(queries),
        "repeats": config.repeats,
        "exact_seconds": exact_seconds,
        "default": default_name,
        "configs": entries,
    }


def small_sweep() -> Dict:
    """The CI-scale sweep (used by ``compare_bench.py --suite ann``)."""
    return run_sweep(AnnSweepConfig.small())


def sweep_config(small: bool = False, **overrides) -> AnnSweepConfig:
    """Convenience for the CLI: base scale plus keyword overrides."""
    base = AnnSweepConfig.small() if small else AnnSweepConfig()
    return replace(base, **overrides) if overrides else base
