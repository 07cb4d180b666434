#!/usr/bin/env python
"""Benchmark regression gate against committed baselines.

Runs two deterministic smoke workloads through the retrieval service —
the HybridTree index path and the sharded exact-scan path — and reduces
each to *scale-free, machine-independent* metrics: retrieval precision,
index node/IO accesses per query, progressive-scan pruning fraction,
cache hit rate, result-quality mix.  For a fixed seed these are
bit-deterministic, so they can be compared across CI runners where
absolute wall-clock timings cannot; a committed baseline under
``benchmarks/baselines/`` is the contract and any metric that moves in
the *bad* direction by more than the tolerance (default 25%) fails the
gate.

Usage::

    python benchmarks/compare_bench.py --check            # CI gate
    python benchmarks/compare_bench.py --check --report bench-report.json
    python benchmarks/compare_bench.py --record           # refresh baseline
    python benchmarks/compare_bench.py --check --suite store

``--record`` rewrites the baseline file; commit the result when a PR
intentionally changes the algorithmic profile.  ``--suite store`` runs
the feature-store workload instead (a memory-mapped store served
through both scan backends) against ``baselines/store.json``;
``--suite batching`` gates the cross-session batched scan (explicit
micro-batches byte-compared against their solo scans) against
``baselines/batching.json``; ``--suite ann`` measures the ANN tier's
recall at CI scale against ``baselines/ann.json``.

Baselines may also declare ``"floors"`` — absolute limits that hold
regardless of the relative tolerance (a floor for higher-is-better
metrics, a ceiling for lower-is-better ones).  The recall contract is
one: ``baselines/ann.json`` floors ``ann.recall_at_default`` at 0.9
and its worst query ``ann.recall_min_at_default`` at 0.75, so a PR
that drags approximate recall below the contract fails the gate even
if the committed baseline itself had headroom.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.core.config import QclusterConfig  # noqa: E402
from repro.retrieval import FeatureDatabase, QclusterMethod, SimulatedUser  # noqa: E402
from repro.service import RetrievalService  # noqa: E402

DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "smoke.json"
DEFAULT_TOLERANCE = 0.25

#: Whether a larger value is an improvement, per metric.  Metrics absent
#: here are recorded for the report but never gated.
DIRECTIONS = {
    "index.precision_at_k": "higher",
    "index.node_accesses_per_query": "lower",
    "index.io_accesses_per_query": "lower",
    "index.cache_hit_rate": "higher",
    "scan.precision_at_k": "higher",
    "scan.pruned_fraction": "higher",
    "scan.exact_page_fraction": "higher",
    "store.precision_at_k": "higher",
    "store.exact_page_fraction": "higher",
    "store.block_reads_per_query": "lower",
    "batching.page_match_fraction": "higher",
    "batching.coarse_page_match_fraction": "higher",
    "batching.pruned_fraction": "higher",
    "ann.recall_at_default": "higher",
    "ann.recall_min_at_default": "higher",
    "ann.calibrated_recall_at_default": "higher",
    "ann.candidate_fraction_at_default": "lower",
}

# Sized so each workload is informative: >2048 rows per scan shard and
# >=16 dimensions so the progressive filter engages (its plan needs a
# coordinate prefix worth filtering on), and enough category overlap
# that precision sits below 1.0 with headroom to regress.
N_CATEGORIES = 12
POINTS_PER_CATEGORY = 220
DIMENSIONS = 16
N_QUERIES = 8
N_ROUNDS = 3
K = 20
SEED = 7


def build_database() -> FeatureDatabase:
    """Synthetic Gaussian categories, deterministic for ``SEED``."""
    rng = np.random.default_rng(SEED)
    centers = 2.0 * rng.standard_normal((N_CATEGORIES, DIMENSIONS))
    vectors = np.concatenate(
        [
            center + 1.5 * rng.standard_normal((POINTS_PER_CATEGORY, DIMENSIONS))
            for center in centers
        ]
    )
    labels = np.repeat(np.arange(N_CATEGORIES), POINTS_PER_CATEGORY)
    return FeatureDatabase(vectors, labels)


def drive_queries(service: RetrievalService, database: FeatureDatabase) -> float:
    """Run the feedback protocol; returns mean final-round precision@k."""
    rng = np.random.default_rng(SEED + 1)
    query_ids = rng.integers(0, database.size, size=N_QUERIES)
    precisions = []
    for query_id in query_ids:
        query_id = int(query_id)
        target = database.category_of(query_id)
        session = service.create_session(query_id)
        user = SimulatedUser(database, target)
        page = service.query(session)
        page = service.query(session)  # identical re-ask: exercises the cache
        for _ in range(N_ROUNDS):
            judgment = user.judge(page.ids)
            page = service.feedback(
                session, judgment.relevant_indices, judgment.scores
            )
        hits = sum(1 for i in page.ids if database.category_of(int(i)) == target)
        precisions.append(hits / len(page.ids))
        service.close(session)
    return float(np.mean(precisions))


def collect_metrics() -> dict:
    """The full metric set from both smoke workloads."""
    database = build_database()
    metrics = {}

    with RetrievalService(database, k=K, use_index=True, cache_size=64) as service:
        precision = drive_queries(service, database)
        snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        queries = counters["queries"] + counters["feedbacks"]
        metrics["index.precision_at_k"] = precision
        metrics["index.node_accesses_per_query"] = (
            counters.get("index_node_accesses", 0) / queries
        )
        metrics["index.io_accesses_per_query"] = (
            counters.get("index_io_accesses", 0) / queries
        )
        metrics["index.cache_hit_rate"] = snapshot["cache"]["hit_rate"]

    # Single shard keeps the whole database above the progressive
    # filter's minimum scan size, and the full-inverse covariance
    # scheme produces the whitened kernels its plan filters on, so
    # pruned_fraction is exercised.
    with RetrievalService(
        database,
        k=K,
        use_index=False,
        n_shards=1,
        cache_size=0,
        method_factory=lambda: QclusterMethod(QclusterConfig(scheme="inverse")),
    ) as service:
        precision = drive_queries(service, database)
        snapshot = service.metrics_snapshot()
        counters = snapshot["counters"]
        pruned = counters.get("candidates_pruned", 0)
        refined = counters.get("candidates_refined", 0)
        pages = counters.get("results_exact", 0) + counters.get("results_degraded", 0)
        metrics["scan.precision_at_k"] = precision
        metrics["scan.pruned_fraction"] = (
            pruned / (pruned + refined) if pruned + refined else 0.0
        )
        metrics["scan.exact_page_fraction"] = (
            counters.get("results_exact", 0) / pages if pages else 0.0
        )

    return {name: round(float(value), 6) for name, value in metrics.items()}


def collect_store_metrics() -> dict:
    """The feature-store workload: the smoke queries served from a store.

    The same deterministic query/feedback protocol runs over a
    memory-mapped store built from the same database, through the
    thread-sharded store scan — measuring the store's profile in the
    same scale-free terms: precision (must match the in-memory path,
    the backend can't change rankings), the exact-page fraction
    (corruption-free serving), and block reads per query (the
    mmap-traffic analogue of the index's node accesses).  The 660-row
    shards sit below the progressive filter's minimum scan size, so
    pruning is intentionally not part of this suite (the smoke suite
    gates it on a single full-size shard).
    """
    import tempfile

    from repro.store import FeatureStore, build_store

    database = build_database()
    metrics = {}
    with tempfile.TemporaryDirectory() as tmp_dir:
        store_path = build_store(database, Path(tmp_dir) / "bench.qcs", n_shards=4)
        store = FeatureStore.open(store_path)
        with RetrievalService(
            store,
            k=K,
            use_index=False,
            cache_size=0,
            method_factory=lambda: QclusterMethod(QclusterConfig(scheme="inverse")),
        ) as service:
            precision = drive_queries(service, database)
            snapshot = service.metrics_snapshot()
            counters = snapshot["counters"]
            queries = counters["queries"] + counters["feedbacks"]
            pages = counters.get("results_exact", 0) + counters.get(
                "results_degraded", 0
            )
            metrics["store.precision_at_k"] = precision
            metrics["store.exact_page_fraction"] = (
                counters.get("results_exact", 0) / pages if pages else 0.0
            )
            metrics["store.block_reads_per_query"] = (
                snapshot["feature_store"]["block_reads"] / queries
            )
    return {name: round(float(value), 6) for name, value in metrics.items()}


def collect_batching_metrics() -> dict:
    """The cross-session batching workload, reduced to exact metrics.

    Timing-free by construction — queue timing can't be reproduced
    across runners, but the batched scan's *output* can: explicit
    micro-batches go through :meth:`RetrievalService.scan_batch` (the
    same stacked scan the executor dispatches) and every page is
    compared byte-for-byte against that query's solo scan kernel.  The
    gate is the match fraction (must stay 1.0) over a deterministic
    query mix — each session's round-0 single-point query plus its
    adaptive multi-cluster feedback queries — once against the
    in-memory float64 matrix and once against a feature store carrying
    PCA ``coarse`` companion blocks (written and verified, read by no
    scan), plus the batched scan's pruning fraction.
    """
    import tempfile

    from repro.parallel import scan_shard_topk
    from repro.store import FeatureStore, build_store

    database = build_database()

    # Harvest the deterministic query mix by replaying the feedback
    # protocol with the method driven directly (no service involved).
    rng = np.random.default_rng(SEED + 2)
    queries = []
    for query_id in rng.integers(0, database.size, size=N_QUERIES):
        method = QclusterMethod(QclusterConfig(scheme="inverse"))
        user = SimulatedUser(database, database.category_of(int(query_id)))
        query = method.start(database.vectors[int(query_id)])
        for _ in range(N_ROUNDS):
            queries.append(query)
            ranked = scan_shard_topk(query, database.vectors, 0, K)[0]
            judgment = user.judge(ranked)
            if judgment.count == 0:
                break
            query = method.feedback(
                database.vectors[judgment.relevant_indices], judgment.scores
            )

    def match_fraction(service, solo_pages) -> float:
        matches = 0
        for start in range(0, len(queries), 8):
            chunk = queries[start : start + 8]
            batched = service.scan_batch(chunk, [K] * len(chunk))
            for position, (ids, distances, _reasons) in enumerate(batched):
                solo_ids, solo_distances = solo_pages[start + position]
                matches += (
                    ids.tobytes() == solo_ids.tobytes()
                    and distances.tobytes() == solo_distances.tobytes()
                )
        return matches / len(queries)

    metrics = {}
    solo_pages = [
        scan_shard_topk(query, database.vectors, 0, K)[:2] for query in queries
    ]
    with RetrievalService(
        database, k=K, use_index=False, n_shards=1, cache_size=0
    ) as service:
        metrics["batching.page_match_fraction"] = match_fraction(
            service, solo_pages
        )
        counters = service.metrics_snapshot()["counters"]
        pruned = counters.get("candidates_pruned", 0)
        refined = counters.get("candidates_refined", 0)
        metrics["batching.pruned_fraction"] = (
            pruned / (pruned + refined) if pruned + refined else 0.0
        )

    with tempfile.TemporaryDirectory() as tmp_dir:
        store_path = build_store(
            database, Path(tmp_dir) / "bench.qcs", n_shards=1, coarse_dims=8
        )
        store = FeatureStore.open(store_path)
        solo_pages = [
            scan_shard_topk(query, store.shard(0), 0, K)[:2] for query in queries
        ]
        with RetrievalService(store, k=K, use_index=False, cache_size=0) as service:
            metrics["batching.coarse_page_match_fraction"] = match_fraction(
                service, solo_pages
            )

    return {name: round(float(value), 6) for name, value in metrics.items()}


def collect_ann_metrics() -> dict:
    """The ANN tier's operating point at CI scale, as exact metrics.

    Wall-clock speedup cannot be gated across runners, but recall can:
    the tree build, its calibrated budget, the harvested feedback
    queries and the searches are all seeded, so recall at the shipped
    operating point — plus its worst query, its build-time calibration
    and its candidate fraction (the scale-free cost proxy) — are
    bit-deterministic.

    The committed baseline additionally *floors* ``recall_at_default``
    at the contract value (0.9) and ``recall_min_at_default`` at 0.75:
    see ``baselines/ann.json``.
    """
    from repro.experiments.ann import small_sweep

    payload = small_sweep()
    metrics = {
        "ann.recall_at_default": payload["recall_mean"],
        "ann.recall_min_at_default": payload["recall_min"],
        "ann.calibrated_recall_at_default": payload["calibrated_recall"],
        "ann.candidate_fraction_at_default": payload["candidate_fraction"],
    }
    return {name: round(float(value), 6) for name, value in metrics.items()}


#: Suite name → (metric collector, default committed baseline).
SUITES = {
    "smoke": (collect_metrics, DEFAULT_BASELINE),
    "store": (
        collect_store_metrics,
        REPO_ROOT / "benchmarks" / "baselines" / "store.json",
    ),
    "batching": (
        collect_batching_metrics,
        REPO_ROOT / "benchmarks" / "baselines" / "batching.json",
    ),
    "ann": (
        collect_ann_metrics,
        REPO_ROOT / "benchmarks" / "baselines" / "ann.json",
    ),
}


def compare(
    current: dict, baseline: dict, tolerance: float, floors: dict = None
) -> list:
    """Regressions (worse than baseline beyond ``tolerance``), as dicts.

    ``floors`` are absolute limits from the baseline file, checked in
    addition to the relative tolerance: a floor for higher-is-better
    metrics, a ceiling for lower-is-better ones.  They encode the
    contract itself (e.g. recall >= 0.9), so they bind even when the
    recorded baseline value has headroom above them.
    """
    regressions = []
    floors = floors or {}
    for name, direction in DIRECTIONS.items():
        if name not in baseline and name not in floors:
            continue
        base = baseline.get(name)
        if name not in current:
            regressions.append(
                {"metric": name, "baseline": base, "current": None,
                 "detail": "metric missing from the current run"}
            )
            continue
        value = current[name]
        if base is not None:
            if direction == "higher":
                floor = base * (1.0 - tolerance)
                regressed = value < floor and not np.isclose(value, floor)
            else:
                ceiling = base * (1.0 + tolerance)
                regressed = value > ceiling and not np.isclose(value, ceiling)
            if regressed:
                change = (value - base) / base if base else float("inf")
                regressions.append(
                    {"metric": name, "baseline": base, "current": value,
                     "detail": f"{change:+.1%} ({direction} is better)"}
                )
                continue
        if name in floors:
            limit = floors[name]
            if direction == "higher":
                breached = value < limit and not np.isclose(value, limit)
                bound = "floor"
            else:
                breached = value > limit and not np.isclose(value, limit)
                bound = "ceiling"
            if breached:
                regressions.append(
                    {"metric": name, "baseline": base, "current": value,
                     "detail": f"breaks the contract {bound} of {limit}"}
                )
    return regressions


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    action = parser.add_mutually_exclusive_group()
    action.add_argument(
        "--check", action="store_true", help="gate against the baseline (default)"
    )
    action.add_argument(
        "--record", action="store_true", help="rewrite the baseline file"
    )
    parser.add_argument(
        "--suite", choices=sorted(SUITES), default="smoke",
        help="workload to run (default: smoke)",
    )
    parser.add_argument(
        "--baseline", type=Path, default=None,
        help="baseline JSON path (default: the suite's committed baseline)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="allowed relative regression before the gate fails",
    )
    parser.add_argument(
        "--report", type=Path, default=None,
        help="write a JSON comparison report here (the CI artifact)",
    )
    args = parser.parse_args(argv)

    collect, suite_baseline = SUITES[args.suite]
    if args.baseline is None:
        args.baseline = suite_baseline

    current = collect()
    for name in sorted(current):
        print(f"  {name:38s} {current[name]:.6f}")

    if args.record:
        recorded = {"tolerance": args.tolerance, "metrics": current}
        if args.baseline.exists():
            # Contract floors are declarations, not measurements —
            # re-recording the baseline must never loosen them.
            try:
                floors = json.loads(args.baseline.read_text()).get("floors")
            except (json.JSONDecodeError, AttributeError):
                floors = None
            if floors:
                recorded["floors"] = floors
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(recorded, indent=2) + "\n")
        print(f"baseline written to {args.baseline}")
        return 0

    # A broken gate must fail loudly in one line, not pass vacuously or
    # dump a traceback: CI treats any non-zero exit as a failed check.
    if not args.baseline.exists():
        print(
            f"compare_bench: no baseline at {args.baseline}; run with --record",
            file=sys.stderr,
        )
        return 2
    try:
        recorded = json.loads(args.baseline.read_text())
        baseline = recorded["metrics"]
        if not isinstance(baseline, dict):
            raise TypeError("'metrics' must be an object")
        floors = recorded.get("floors", {})
        if not isinstance(floors, dict):
            raise TypeError("'floors' must be an object")
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError) as error:
        print(
            f"compare_bench: malformed baseline {args.baseline}: {error}",
            file=sys.stderr,
        )
        return 2
    tolerance = args.tolerance if args.tolerance != DEFAULT_TOLERANCE else recorded.get(
        "tolerance", DEFAULT_TOLERANCE
    )
    regressions = compare(current, baseline, tolerance, floors)

    if args.report is not None:
        args.report.write_text(
            json.dumps(
                {
                    "tolerance": tolerance,
                    "baseline": baseline,
                    "floors": floors,
                    "current": current,
                    "regressions": regressions,
                },
                indent=2,
            )
            + "\n"
        )
        print(f"report written to {args.report}")

    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond {tolerance:.0%}:")
        for regression in regressions:
            print(
                f"  {regression['metric']}: {regression['baseline']} -> "
                f"{regression['current']} ({regression['detail']})"
            )
        return 1
    print(f"\nall {len(baseline)} gated metrics within {tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
