"""Command-line interface for the Qcluster reproduction.

Subcommands:

* ``demo`` — a self-contained feedback session on a freshly generated
  collection, printing per-iteration quality (the quickstart, as a CLI).
* ``compare`` — Qcluster vs the baselines over a query batch.
* ``disjunctive`` — the Example 3 / Figure 5 scatter demonstration.
* ``serve`` — stand up the asyncio HTTP front-end
  (:class:`~repro.service.RetrievalServer`) over a generated
  collection, with cross-session query batching on by default;
  ``--self-test`` instead runs the closed-loop load generator against
  an ephemeral server and prints throughput.
* ``obs`` — run a traced feedback workload and dump the observability
  surface: rendered span trees of the last N rounds, the raw JSONL
  event log, or a Prometheus text-format exposition.
* ``chaos`` — replay a deterministic feedback workload twice, fault-free
  and under a seeded :class:`~repro.faults.FaultPlan`, and verify the
  resilience contract: every page served under faults is either
  byte-identical to its fault-free twin or explicitly marked degraded
  (:mod:`repro.faults.replay`).  The serving mode (store file, batching
  executor, ANN tier) follows the plan's sites.
* ``store`` — build a memory-mapped feature store from a generated
  collection (``store build``), re-check every block CRC
  (``store verify``), or dump its header, geometry and block table
  (``store inspect``).
* ``figure`` — regenerate any of the paper's tables/figures by id
  (``fig5`` ... ``fig19``, ``table2``, ``table3``, ``headline``),
  optionally exporting CSV.
* ``export-collection`` — write a procedural collection to disk as a
  PPM directory tree (one subdirectory per category), loadable back via
  :func:`repro.datasets.load_directory_collection`.

Run:  python -m repro.cli <subcommand> [options]
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .baselines import Falcon, MindReader, QueryExpansion, QueryPointMovement
from .core.distance import DisjunctiveQuery, QueryPoint
from .datasets import generate_collection
from .datasets.uniform import ball_membership, uniform_cube
from .features import color_pipeline
from .retrieval import (
    FeatureDatabase,
    FeedbackSession,
    QclusterMethod,
    compare_methods,
    sample_query_indices,
)

_METHODS = {
    "qcluster": QclusterMethod,
    "qex": QueryExpansion,
    "qpm": QueryPointMovement,
    "falcon": Falcon,
    "mindreader": MindReader,
}


def _build_database(args) -> FeatureDatabase:
    collection = generate_collection(
        n_categories=args.categories,
        images_per_category=args.images_per_category,
        image_size=20,
        complex_fraction=args.complex_fraction,
        seed=args.seed,
    )
    features = color_pipeline().fit(collection.images)
    return FeatureDatabase(features, collection.labels)


def cmd_demo(args) -> int:
    """One feedback session with per-iteration quality output."""
    database = _build_database(args)
    method = QclusterMethod()
    session = FeedbackSession(database, method, k=args.k)
    result = session.run(args.query, n_iterations=args.iterations)
    print("iteration  precision  recall  clusters")
    for record in result.records:
        print(
            f"{record.iteration:^9}  {record.precision:^9.3f}  "
            f"{record.recall:^6.3f}  {method.n_clusters:^8}"
        )
    return 0


def cmd_compare(args) -> int:
    """Paired comparison of the selected methods."""
    database = _build_database(args)
    names = args.methods.split(",")
    unknown = [name for name in names if name not in _METHODS]
    if unknown:
        print(f"unknown methods: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(_METHODS)}", file=sys.stderr)
        return 2
    rng = np.random.default_rng(args.seed)
    queries = sample_query_indices(database, args.queries, rng)
    results = compare_methods(
        database,
        {name: _METHODS[name] for name in names},
        queries,
        k=args.k,
        n_iterations=args.iterations,
    )
    print("recall per iteration")
    print("iter  " + "  ".join(f"{name:>10}" for name in names))
    for iteration in range(args.iterations + 1):
        cells = "  ".join(
            f"{results[name].mean_recall[iteration]:>10.3f}" for name in names
        )
        print(f"{iteration:^4}  {cells}")
    return 0


def cmd_disjunctive(args) -> int:
    """The Example 3 two-ball retrieval counts."""
    rng = np.random.default_rng(args.seed)
    points = uniform_cube(args.points, rng=rng)
    centers = [np.full(3, -1.0), np.full(3, 1.0)]
    query = DisjunctiveQuery(
        [QueryPoint(center=c, inverse=np.eye(3), weight=1.0) for c in centers]
    )
    truth = ball_membership(points, centers, radius=1.0)
    n_target = int(truth.sum())
    retrieved = np.argsort(query.distances(points))[:n_target]
    mask = np.zeros(args.points, dtype=bool)
    mask[retrieved] = True
    overlap = int((mask & truth).sum())
    print(f"points within 1.0 of either center: {n_target}")
    print(f"retrieved by the Equation-5 aggregate: {len(retrieved)}")
    print(f"agreement with the two-ball ground truth: {overlap / n_target:.1%}")
    return 0


def cmd_serve(args) -> int:
    """Serve the retrieval API over HTTP, batching compatible queries."""
    from .service import BatchingConfig, RetrievalServer, RetrievalService

    batching = False
    if not args.no_batching:
        if args.shed_threshold is not None and not args.ann:
            print(
                "--shed-threshold needs --ann: shed requests are served "
                "from the ANN tier",
                file=sys.stderr,
            )
            return 2
        try:
            batching = BatchingConfig(
                max_batch=args.batch_size,
                max_pending=args.max_pending,
                shed_threshold=args.shed_threshold,
            )
        except ValueError as error:
            print(f"invalid batching options: {error}", file=sys.stderr)
            return 2
    database = _build_database(args)
    service = RetrievalService(
        database,
        k=args.k,
        use_index=args.use_index,
        capacity=args.capacity,
        cache_size=args.cache_size,
        batching=batching,
        ann=args.ann,
    )
    server = RetrievalServer(
        service, host=args.host, port=args.port, max_concurrent=args.max_concurrent
    )
    try:
        if args.self_test:
            from .service import closed_loop_load

            host, port = server.start_in_background()
            print(f"self-test server on http://{host}:{port}")
            report = closed_loop_load(
                host,
                port,
                sessions=args.loadgen_sessions,
                rounds=args.loadgen_rounds,
                k=min(args.k, 10),
                tenants=max(1, args.loadgen_sessions // 8),
            )
            server.stop_background()
            print(
                f"closed loop: {args.loadgen_sessions} sessions x "
                f"{args.loadgen_rounds} rounds -> {report['queries']} queries "
                f"in {report['wall_s']:.2f}s"
            )
            print(
                f"qps={report['qps']:.1f} p50={report['p50_s'] * 1e3:.2f}ms "
                f"p95={report['p95_s'] * 1e3:.2f}ms "
                f"errors={len(report['errors'])}"
            )
            stats = service.batching.stats() if service.batching else {}
            if stats:
                print(
                    f"batches={stats['batches']} "
                    f"mean_batch_size={stats['mean_batch_size']:.2f} "
                    f"max_batch_size={stats['max_batch_size']}"
                )
            return 1 if report["errors"] else 0
        print(f"serving on http://{args.host}:{args.port} (Ctrl-C to stop)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        return 0
    finally:
        service.shutdown()


def cmd_store(args) -> int:
    """Build / verify / inspect a memory-mapped feature store."""
    import json

    from .store import FeatureStore, StoreFormatError, build_store

    if args.store_command == "build":
        database = _build_database(args)
        try:
            build_store(
                database,
                args.output,
                n_shards=args.shards,
                coarse_dims=args.coarse_dims,
            )
        except ValueError as error:
            print(f"cannot build store: {error}", file=sys.stderr)
            return 2
        store = FeatureStore.open(args.output)
        print(
            f"wrote {args.output}: n={store.n} p={store.dimension} "
            f"shards={store.n_shards} coarse_dims={store.coarse_dims} "
            f"epoch={store.epoch}"
        )
        print(f"fingerprint: {store.fingerprint}")
        return 0
    try:
        store = FeatureStore.open(args.path)
    except (StoreFormatError, OSError) as error:
        print(f"invalid store: {error}", file=sys.stderr)
        return 1
    if args.store_command == "verify":
        report = store.verify()
        for name in sorted(report):
            print(f"{name:<24} {report[name]}")
        bad = sum(1 for reason in report.values() if reason != "ok")
        if bad:
            print(f"{bad} corrupt block(s)", file=sys.stderr)
            return 1
        print(f"all {len(report)} blocks verified ({store.fingerprint})")
        return 0
    print(json.dumps(store.describe(), indent=2))
    return 0


def cmd_chaos(args) -> int:
    """Deterministic fault-plan replay with the byte-identical-or-degraded check."""
    from pathlib import Path

    from .faults import FaultPlan, registered_sites
    from .faults.plans import BUILTIN_PLAN_NAMES, builtin_plan
    from .faults.replay import replay

    if args.plan_file:
        # Every way a plan file can be unusable fails here, before the
        # fault-free baseline runs.
        try:
            plan = FaultPlan.from_json(Path(args.plan_file).read_text())
            plan.validate_sites(list(registered_sites()))
        except (OSError, ValueError, TypeError, AttributeError) as error:
            print(f"unusable plan file {args.plan_file}: {error}", file=sys.stderr)
            return 2
    elif args.plan in BUILTIN_PLAN_NAMES:
        plan = builtin_plan(args.plan, seed=args.fault_seed)
    else:
        print(f"unknown plan: {args.plan}", file=sys.stderr)
        print(f"available: {', '.join(BUILTIN_PLAN_NAMES)}", file=sys.stderr)
        return 2
    if args.save_plan:
        Path(args.save_plan).write_text(plan.to_json())
        print(f"plan written to {args.save_plan}")

    # Tail-sampled tracing of the faulted replay: keep_probability=0 keeps
    # ONLY traces flagged interesting (fault_injected / retry / degraded
    # quality / errors), so the exported JSONL is exactly the incident set.
    tracer = None
    if args.trace_jsonl:
        from .obs import TailSamplingPolicy, Tracer

        tracer = Tracer(
            max_traces=256,
            tail_sampling=TailSamplingPolicy(keep_probability=0.0),
        )

    report = replay(
        _build_database(args),
        plan,
        sessions=args.sessions,
        rounds=args.iterations,
        k=args.k,
        seed=args.seed,
        shards=args.shards,
        use_index=args.use_index,
        tracer=tracer,
    )
    if report.baseline_errors:
        print(
            f"{report.baseline_errors} step(s) failed in the fault-free baseline",
            file=sys.stderr,
        )
        return 1

    fire_stats, snapshot = report.fires, report.snapshot
    counters = snapshot["counters"]
    print(f"plan: {plan.name or '<unnamed>'} (seed {plan.seed}, {len(plan.specs)} specs)")
    print(f"workload: {args.sessions} sessions x {args.iterations} rounds")
    print()
    print("injected faults by site:")
    for site, kinds in fire_stats["by_site"].items():
        detail = ", ".join(f"{kind}={count}" for kind, count in sorted(kinds.items()))
        print(f"  {site:<22} {detail}")
    if not fire_stats["by_site"]:
        print("  (none fired)")
    print()
    print("recovery:")
    for name in (
        "shard_retries",
        "shard_failures",
        "compile_retries",
        "restore_retries",
        "checkpoint_save_errors",
        "checkpoints_corrupt",
        "sessions_rebuilt",
        "cache_errors",
        "ann_scans",
        "ann_fallbacks",
        "results_exact",
        "results_approximate",
        "results_degraded",
    ):
        if counters.get(name):
            print(f"  {name:<24} {counters[name]}")
    print(f"  {'cache_corruptions':<24} {snapshot['cache']['corruptions']}")
    print()
    print(
        f"pages: {report.exact} exact + {report.approximate} approximate "
        f"(byte-checked), {report.fallback} ann-fallback, "
        f"{report.degraded} degraded, {report.errored} errored, "
        f"{report.excluded} excluded after divergence"
    )
    if tracer is not None:
        from .obs import trace_to_jsonl_lines

        traces = tracer.traces()
        lines = [line for trace in traces for line in trace_to_jsonl_lines(trace)]
        Path(args.trace_jsonl).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )
        tail = tracer.aggregates().get("tail", {})
        print(
            f"tail sampling: {len(traces)} trace(s) retained "
            f"({tail.get('kept_interesting', 0)} interesting, "
            f"{tail.get('kept_slow', 0)} slow, {tail.get('dropped', 0)} dropped) "
            f"-> {args.trace_jsonl}"
        )
        if (report.degraded or report.fallback or report.errored) and not traces:
            print(
                "VIOLATION: degraded/errored pages occurred but tail sampling "
                "retained no trace",
                file=sys.stderr,
            )
            return 1
    if not fire_stats["total_fires"]:
        # A replay whose plan never reaches its fault sites exercises no
        # recovery path, so it proves nothing about the contract.
        print(
            "VIOLATION: no fault fired; the replay never reached the plan's sites",
            file=sys.stderr,
        )
        return 1
    if report.violations:
        print(
            f"VIOLATION: {len(report.violations)} page(s) break the contract: "
            f"{report.violations[:10]}",
            file=sys.stderr,
        )
        return 1
    print(
        "resilience contract holds: every exact page — and every healthy "
        "approximate page — is byte-identical"
    )
    return 0


def cmd_obs(args) -> int:
    """Traced feedback workload, dumped as span trees / JSONL / Prometheus."""
    from .obs import Tracer, render_span_tree, trace_to_jsonl_lines
    from .retrieval import SimulatedUser
    from .service import RetrievalService

    database = _build_database(args)
    tracer = Tracer(max_traces=args.max_traces, sample_every=args.sample_every)
    service = RetrievalService(database, k=args.k, tracer=tracer)
    rng = np.random.default_rng(args.seed)
    try:
        for query_id in rng.integers(0, database.size, size=args.sessions):
            session_id = service.create_session(int(query_id))
            user = SimulatedUser(database, database.category_of(int(query_id)))
            page = service.query(session_id)
            for _ in range(args.iterations):
                judgment = user.judge(page.ids)
                page = service.feedback(
                    session_id, judgment.relevant_indices, judgment.scores
                )
            service.close(session_id)
        traces = tracer.traces(last=args.last)
        if args.format == "prometheus":
            output = service.prometheus_metrics()
        elif args.format == "slo":
            output = _render_slo(service.slo.snapshot())
        elif args.format == "jsonl":
            output = "\n".join(
                line for trace in traces for line in trace_to_jsonl_lines(trace)
            )
        else:
            output = "\n\n".join(render_span_tree(trace) for trace in traces)
    finally:
        service.shutdown()
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(output + "\n", encoding="utf-8")
        print(f"wrote {args.output}")
    else:
        print(output)
    return 0


def _render_slo(snapshot) -> str:
    """Human-readable SLO report: latency rows, then burn rates."""
    from .obs.slo import quantile

    lines = ["latency histograms (p50 / p95 / p99, count):"]
    for entry in snapshot["histograms"]:
        cumulative = [*entry["counts"], entry["count"]]
        p50, p95, p99 = (
            quantile(entry["buckets"], cumulative, q) * 1000 for q in (0.5, 0.95, 0.99)
        )
        label = f"{entry['route']}/{entry['tenant']}/{entry['quality']}"
        lines.append(
            f"  {label:<32} {p50:8.2f}ms {p95:8.2f}ms {p99:8.2f}ms n={entry['count']}"
        )
    if len(lines) == 1:
        lines.append("  (no requests observed)")
    lines.append("")
    lines.append("error-budget burn rates (per objective, per window):")
    for objective in snapshot["objectives"]:
        target = objective["target"]
        lines.append(f"  {objective['name']} (target {target:g}):")
        for window, stats in objective["windows"].items():
            lines.append(
                f"    {window:<8} burn={stats['burn_rate']:.3f} "
                f"bad={stats['bad']}/{stats['total']}"
            )
    return "\n".join(lines)


def _figure_tables(figure_id: str, scale: str):
    """Produce the ResultTables for one figure/table id."""
    from .experiments import (
        ProtocolConfig,
        ProtocolData,
        classification,
        fig05,
        fig06,
        fig07,
        quality,
        t2_accuracy,
    )

    if figure_id == "fig5":
        return [fig05.run().as_table()]
    if figure_id == "fig6":
        return [fig06.run().as_table()]

    if figure_id in ("fig14", "fig15", "fig16", "fig17"):
        shape, scheme = {
            "fig14": ("spherical", "inverse"),
            "fig15": ("elliptical", "inverse"),
            "fig16": ("spherical", "diagonal"),
            "fig17": ("elliptical", "diagonal"),
        }[figure_id]
        return [classification.sweep(shape, scheme).as_table()]
    if figure_id in ("table2", "table3"):
        same_mean = figure_id == "table2"
        return [
            t2_accuracy.run_table(same_mean, scheme).as_table()
            for scheme in ("inverse", "diagonal")
        ]
    if figure_id in ("fig18", "fig19"):
        scheme = "inverse" if figure_id == "fig18" else "diagonal"
        return [t2_accuracy.qq_data(scheme).as_table()]

    # The remaining figures need the full retrieval protocol.
    config = ProtocolConfig() if scale == "default" else ProtocolConfig(
        n_categories=6, images_per_category=40, n_queries=8
    )
    data = ProtocolData.build(config)
    if figure_id == "fig7":
        return [fig07.run(data.color_database).as_table()]
    if figure_id in ("fig8", "fig9"):
        feature = "color" if figure_id == "fig8" else "texture"
        return [quality.pr_curves(data, feature).as_table()]
    if figure_id in ("fig10", "fig11", "fig12", "fig13"):
        feature = "color" if figure_id in ("fig10", "fig12") else "texture"
        tables = quality.comparison(data, feature).as_tables()
        wanted = "recall" if figure_id in ("fig10", "fig11") else "precision"
        return [table for table in tables if wanted in table.title]
    if figure_id == "headline":
        return [quality.headline(data).as_table()]
    raise KeyError(figure_id)


FIGURE_IDS = (
    "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
    "table2", "table3", "headline",
)


def cmd_figure(args) -> int:
    """Regenerate one of the paper's tables/figures."""
    if args.id not in FIGURE_IDS:
        print(f"unknown figure id {args.id!r}", file=sys.stderr)
        print(f"available: {', '.join(FIGURE_IDS)}", file=sys.stderr)
        return 2
    tables = _figure_tables(args.id, args.scale)
    for position, table in enumerate(tables):
        table.print()
        if args.csv:
            suffix = f"_{position}" if len(tables) > 1 else ""
            path = f"{args.csv}/{args.id}{suffix}.csv"
            table.to_csv(path)
            print(f"wrote {path}")
    return 0


def cmd_export_collection(args) -> int:
    """Write a generated collection as a PPM directory tree."""
    from pathlib import Path

    from .datasets import generate_collection
    from .datasets.ppm import save_ppm

    collection = generate_collection(
        n_categories=args.categories,
        images_per_category=args.images_per_category,
        image_size=args.image_size,
        complex_fraction=args.complex_fraction,
        seed=args.seed,
    )
    root = Path(args.output)
    counters = {}
    for image, label in zip(collection.images, collection.labels):
        index = counters.get(int(label), 0)
        counters[int(label)] = index + 1
        save_ppm(image, root / f"category_{label:03d}" / f"{index:04d}.ppm")
    print(
        f"wrote {len(collection)} images across {args.categories} categories to {root}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Qcluster (SIGMOD 2003) reproduction CLI"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_collection_arguments(sub):
        sub.add_argument("--categories", type=int, default=12)
        sub.add_argument("--images-per-category", type=int, default=100)
        sub.add_argument("--complex-fraction", type=float, default=0.4)
        sub.add_argument("--seed", type=int, default=42)
        sub.add_argument("--k", type=int, default=100)
        sub.add_argument("--iterations", type=int, default=5)

    demo = subparsers.add_parser("demo", help="run one feedback session")
    add_collection_arguments(demo)
    demo.add_argument("--query", type=int, default=0, help="query image index")
    demo.set_defaults(func=cmd_demo)

    compare = subparsers.add_parser("compare", help="compare feedback methods")
    add_collection_arguments(compare)
    compare.add_argument(
        "--methods", default="qcluster,qex,qpm", help="comma-separated method names"
    )
    compare.add_argument("--queries", type=int, default=10)
    compare.set_defaults(func=cmd_compare)

    serve = subparsers.add_parser(
        "serve", help="asyncio HTTP front-end with cross-session query batching"
    )
    add_collection_arguments(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--max-concurrent", type=int, default=64, help="admission-control limit"
    )
    serve.add_argument("--capacity", type=int, default=256, help="max live sessions")
    serve.add_argument("--cache-size", type=int, default=128, help="result-cache pages")
    serve.add_argument(
        "--batch-size", type=int, default=32, help="micro-batch size ceiling"
    )
    serve.add_argument(
        "--max-pending", type=int, default=256, help="backpressure queue bound"
    )
    serve.add_argument(
        "--shed-threshold",
        type=int,
        default=None,
        help="queue depth at which new batching arrivals skip the queue and "
        "are served from the ANN tier (requires --ann; must be below "
        "--max-pending)",
    )
    serve.add_argument(
        "--no-batching",
        action="store_true",
        help="serve each query through the unbatched thread-pool path",
    )
    serve.add_argument(
        "--ann",
        action="store_true",
        help="build the approximate tier (a calibrated, row-budgeted "
        "search over the hybrid tree): clients opt in per "
        "request (?approximate=1), and load-shed batching traffic is "
        "served from it instead of waiting out the queue",
    )
    serve.add_argument(
        "--use-index",
        action="store_true",
        help="serve through the HybridTree (bypasses the batching executor; "
        "default: exact sharded scan)",
    )
    serve.add_argument(
        "--self-test",
        action="store_true",
        help="run the closed-loop load generator against an ephemeral "
        "server, print throughput, and exit",
    )
    serve.add_argument(
        "--loadgen-sessions", type=int, default=16, help="self-test sessions"
    )
    serve.add_argument(
        "--loadgen-rounds", type=int, default=3, help="self-test feedback rounds"
    )
    serve.set_defaults(func=cmd_serve)

    obs = subparsers.add_parser(
        "obs", help="trace a feedback workload and dump spans/events/metrics"
    )
    add_collection_arguments(obs)
    obs.add_argument("--sessions", type=int, default=2, help="sessions to drive")
    obs.add_argument(
        "--format",
        choices=("tree", "jsonl", "prometheus", "slo"),
        default="tree",
        help="tree = rendered span trees, jsonl = raw event log, "
        "prometheus = text-format metrics exposition, "
        "slo = latency quantiles and error-budget burn rates",
    )
    obs.add_argument(
        "--last", type=int, default=None, help="only the last N traces"
    )
    obs.add_argument(
        "--max-traces", type=int, default=64, help="trace ring-buffer size"
    )
    obs.add_argument(
        "--sample-every", type=int, default=1, help="trace every N-th request"
    )
    obs.add_argument("--output", help="write to this file instead of stdout")
    obs.set_defaults(func=cmd_obs)

    chaos = subparsers.add_parser(
        "chaos",
        help="replay a workload under a seeded fault plan and check the "
        "byte-identical-or-degraded contract",
    )
    add_collection_arguments(chaos)
    chaos.add_argument(
        "--plan",
        default="worker-crash",
        help="builtin plan name (worker-crash, slow-shard, corrupt-checkpoint, "
        "torn-block, batch-abort, ann-descend)",
    )
    chaos.add_argument(
        "--plan-file", default=None, help="load the fault plan from a JSON file"
    )
    chaos.add_argument(
        "--save-plan", default=None, help="write the resolved plan JSON here"
    )
    chaos.add_argument(
        "--fault-seed", type=int, default=0, help="seed for the fault plan's draws"
    )
    chaos.add_argument("--sessions", type=int, default=4, help="sessions to drive")
    chaos.add_argument("--shards", type=int, default=4, help="scan shards")
    chaos.add_argument(
        "--use-index",
        action="store_true",
        help="serve exact pages through the HybridTree, arming tree.node "
        "(default: exact sharded scan; the store, batching and ANN modes "
        "follow the plan's sites)",
    )
    chaos.add_argument(
        "--trace-jsonl",
        default=None,
        help="trace the faulted replay with tail sampling (keep only "
        "faulted/degraded/slow traces) and write them to this JSONL file; "
        "fails if degraded pages occurred but no trace was retained",
    )
    chaos.set_defaults(func=cmd_chaos)

    store = subparsers.add_parser(
        "store", help="build / verify / inspect a memory-mapped feature store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_build = store_sub.add_parser(
        "build", help="ingest a generated collection into a store file"
    )
    add_collection_arguments(store_build)
    store_build.add_argument("--output", required=True, help="store file to write")
    store_build.add_argument(
        "--shards", type=int, default=None, help="shard count (default: sized from n)"
    )
    store_build.add_argument(
        "--coarse-dims",
        type=int,
        default=0,
        help="PCA-prefix companion block width (0 = none); written and "
        "verified, read by no scan",
    )
    store_build.set_defaults(func=cmd_store)
    store_verify = store_sub.add_parser("verify", help="re-check every block CRC")
    store_verify.add_argument("path", help="store file")
    store_verify.set_defaults(func=cmd_store)
    store_inspect = store_sub.add_parser(
        "inspect", help="dump the header, geometry and block table as JSON"
    )
    store_inspect.add_argument("path", help="store file")
    store_inspect.set_defaults(func=cmd_store)

    disjunctive = subparsers.add_parser(
        "disjunctive", help="the Example 3 / Figure 5 demo"
    )
    disjunctive.add_argument("--points", type=int, default=10_000)
    disjunctive.add_argument("--seed", type=int, default=42)
    disjunctive.set_defaults(func=cmd_disjunctive)

    figure = subparsers.add_parser(
        "figure", help="regenerate a paper table/figure by id"
    )
    figure.add_argument("id", help=f"one of: {', '.join(FIGURE_IDS)}")
    figure.add_argument(
        "--scale",
        choices=("default", "small"),
        default="default",
        help="protocol scale for the retrieval figures (small = quick look)",
    )
    figure.add_argument("--csv", help="directory to export CSV into")
    figure.set_defaults(func=cmd_figure)

    export = subparsers.add_parser(
        "export-collection", help="write a generated collection as PPM files"
    )
    export.add_argument("output", help="target directory")
    export.add_argument("--categories", type=int, default=8)
    export.add_argument("--images-per-category", type=int, default=20)
    export.add_argument("--image-size", type=int, default=24)
    export.add_argument("--complex-fraction", type=float, default=0.3)
    export.add_argument("--seed", type=int, default=0)
    export.set_defaults(func=cmd_export_collection)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
