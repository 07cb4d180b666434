"""Pure bookkeeping of the benchmark: percentiles, span ledgers, counters.

Nothing here imports ``repro``: the benchmark measures the program
through its public surfaces (HTTP, ``/stats``, exported traces) and
keeps its own arithmetic, so a change inside the program cannot quietly
change how it is measured.

**Span ledger.**  A request's trace is a tree of timed spans.  Each
instant of the root's interval is charged to the deepest spans open at
that instant, split evenly when several run at once (two shard scans in
parallel each get half).  A span's charge is therefore its *self time*
(its duration minus the part of its interval its children cover) with
parallel children sharing, and the charges of one request add up to
its root span's duration exactly: layer shares add up to latency.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer would make it one or two unlucky requests.
MIN_BEYOND = 10

#: Name and layer of the synthetic span covering a batched request's
#: queue wait (see :func:`with_batches`).
QUEUE_WAIT = "batching.queue_wait"


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (always an observed value)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return float(ordered[rank - 1])


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the ``q``-th percentile."""
    return n - max(1, math.ceil(n * q / 100.0)) if n else 0


def tail_percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` with < MIN_BEYOND samples beyond."""
    if samples_beyond(len(values), q) < MIN_BEYOND:
        return None
    return nearest_rank(values, q)


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# ----------------------------------------------------------------------
# Span trees
# ----------------------------------------------------------------------


def index_spans(roots: Iterable[Mapping[str, Any]]) -> Dict[str, Mapping[str, Any]]:
    """``span_id → span`` over every span of every tree."""
    found: Dict[str, Mapping[str, Any]] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        found[str(node.get("span_id"))] = node
        stack.extend(node.get("children") or ())
    return found


def layer_of(node: Mapping[str, Any]) -> str:
    """The layer a span's self time is charged to."""
    name = node.get("name")
    path = (node.get("attributes") or {}).get("path")
    if name == "http_request":
        return "server.http_self"
    if name in ("query", "feedback", "create_session"):
        return "engine.self"
    if name == "classify":
        return "qcluster.classify"
    if name == "merge":
        return "qcluster.merge"
    if name == "compile":
        return "kernels.compile"
    if name == "refine":
        return "progressive.refine"
    if name == QUEUE_WAIT:
        return QUEUE_WAIT
    if name == "scan":
        return {
            "index": "index.search",
            "ann": "ann.search",
            "worker": "workers.scan",
        }.get(path, "scan.self")
    if name == "batch":
        # The host side of a worker round trip is IPC wait; on the
        # threads backend the batch span's own time is the scan itself
        # (level-0 pass, full kernel passes, shard merge).
        if any(layer_of(child) == "workers.scan" for child in node.get("children") or ()):
            return "workers.ipc"
        return "scan.self"
    return f"other.{name}"


def with_batches(
    node: Mapping[str, Any], spans: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Any]:
    """A copy of ``node``'s tree with each batched scan's wait made explicit.

    A batched request's scan span carries a ``batch_link`` event naming
    the micro-batch that served it and how long it queued.  The batch
    span lives in the trace of the batch's first member, so for every
    other member it is grafted here as a child of the scan; every member
    also gets a synthetic ``batching.queue_wait`` child covering the
    queueing interval just before the batch started.
    """
    copy = dict(node)
    children = [with_batches(child, spans) for child in node.get("children") or ()]
    for event in node.get("events") or ():
        if event.get("name") != "batch_link":
            continue
        fields = event.get("fields") or {}
        batch = spans.get(str(fields.get("batch_span_id")))
        if batch is None:
            continue
        own = any(child.get("span_id") == batch.get("span_id") for child in children)
        if not own:
            children.append(with_batches(batch, spans))
        wait = float(fields.get("queue_wait_s", 0.0))
        children.append(
            {
                "name": QUEUE_WAIT,
                "span_id": f"{batch.get('span_id')}.wait.{node.get('span_id')}",
                "start_time": float(batch["start_time"]) - wait,
                "duration_s": wait,
                "children": [],
            }
        )
    copy["children"] = children
    return copy


def charges(root: Mapping[str, Any]) -> Dict[str, float]:
    """Seconds of ``root``'s interval charged to each layer.

    Child intervals are clipped to their parent's, so clock jitter
    between processes cannot charge time outside the request.
    """
    nodes: List[tuple] = []  # (layer, start, end, parent index)

    def walk(node: Mapping[str, Any], parent: Optional[int], low: float, high: float) -> None:
        start = max(low, float(node["start_time"]))
        end = min(high, float(node["start_time"]) + float(node["duration_s"]))
        end = max(start, end)
        position = len(nodes)
        nodes.append((layer_of(node), start, end, parent))
        for child in node.get("children") or ():
            walk(child, position, start, end)

    walk(root, None, -math.inf, math.inf)
    cuts = sorted({edge for _, start, end, _ in nodes for edge in (start, end)})
    totals: Dict[str, float] = defaultdict(float)
    for low, high in zip(cuts, cuts[1:]):
        active = [i for i, (_, start, end, _) in enumerate(nodes) if start <= low and end >= high]
        parents = {nodes[i][3] for i in active}
        leaves = [i for i in active if i not in parents]
        for i in leaves:
            totals[nodes[i][0]] += (high - low) / len(leaves)
    return dict(totals)


def batch_seconds(root: Mapping[str, Any]) -> float:
    """Wall time of the micro-batch(es) that served this request."""
    total = 0.0
    stack = [root]
    while stack:
        node = stack.pop()
        if node.get("name") == "batch":
            total += float(node["duration_s"])
            continue
        stack.extend(node.get("children") or ())
    return total


def request_ledger(
    root: Mapping[str, Any], spans: Mapping[str, Mapping[str, Any]], client_s: float
) -> Dict[str, float]:
    """One request's layer charges in seconds, including the HTTP edge.

    ``server.edge`` is the client's latency minus the server's
    ``http_request`` span: sockets, parsing, admission wait and JSON
    serialization on both ends.
    """
    tree = with_batches(root, spans)
    ledger = charges(tree)
    ledger["server.edge"] = max(0.0, client_s - float(root["duration_s"]))
    ledger["batching.batch"] = batch_seconds(tree)
    return ledger


def unattributed_share(ledgers: Sequence[Mapping[str, float]], latencies: Sequence[float]) -> float:
    """Time no stage span accounts for, over mean client latency.

    That is the self time of the HTTP and engine roots plus every
    ``other.*`` charge: a span the ledger does not know (a stage renamed
    in the program) counts as unattributed, so it trips the limit rather
    than leaving its layer silently at 0.
    """
    if not ledgers or not latencies:
        return 0.0
    unknown = mean(
        sum(
            seconds
            for layer, seconds in ledger.items()
            if layer in ("server.http_self", "engine.self") or layer.startswith("other.")
        )
        for ledger in ledgers
    )
    return unknown / mean(latencies)


# ----------------------------------------------------------------------
# /stats counters
# ----------------------------------------------------------------------


def flatten_stats(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """The monotone counters of a ``/stats`` snapshot, flattened.

    Keys are ``counters.<name>``, ``latency.<stage>.count`` and the
    lifetime totals of the worker pool, feature store and batching
    executor.
    """
    flat: Dict[str, float] = {}
    for name, value in (snapshot.get("counters") or {}).items():
        flat[f"counters.{name}"] = float(value)
    for stage, summary in (snapshot.get("latency") or {}).items():
        flat[f"latency.{stage}.count"] = float(summary.get("count", 0))
    for section, keys in (
        ("worker_pool", ("tasks_completed", "tasks_failed")),
        ("feature_store", ("block_reads",)),
        ("batching", ("batches", "batched_queries", "shed", "fallbacks")),
    ):
        values = snapshot.get(section) or {}
        for key in keys:
            if key in values:
                flat[f"{section}.{key}"] = float(values[key])
    return flat


def stats_diff(before: Mapping[str, Any], after: Mapping[str, Any]) -> Dict[str, float]:
    """Counter increments between two ``/stats`` snapshots."""
    start, end = flatten_stats(before), flatten_stats(after)
    return {key: end[key] - start.get(key, 0.0) for key in end}


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def counter_metrics(diff: Mapping[str, float]) -> Dict[str, float]:
    """Per-layer count metrics of one measured phase."""
    get = lambda key: diff.get(key, 0.0)  # noqa: E731
    hits, misses = get("counters.cache_hits"), get("counters.cache_misses")
    computed = misses + get("counters.ann_scans")
    scans = get("counters.fallback_scans")
    searches = get("latency.index_search.count")
    pruned, refined = get("counters.candidates_pruned"), get("counters.candidates_refined")
    return {
        "cache.hit_rate": ratio(hits, hits + misses),
        "kernels.cache_hit_rate": ratio(
            get("counters.kernel_cache_hits"),
            get("counters.kernel_cache_hits") + get("counters.kernel_cache_misses"),
        ),
        "batching.mean_batch_size": ratio(get("batching.batched_queries"), get("batching.batches")),
        "batching.fallbacks": get("batching.fallbacks"),
        "batching.shed": get("batching.shed"),
        "scan.rows_scored_per_query": ratio(refined, computed),
        "progressive.refine_fraction": ratio(refined, pruned + refined),
        "progressive.pruned_per_query": ratio(pruned, computed),
        "workers.tasks_per_query": ratio(get("worker_pool.tasks_completed"), scans),
        "workers.tasks_failed": get("worker_pool.tasks_failed"),
        "store.block_reads": ratio(
            get("counters.store_block_reads_workers") + get("feature_store.block_reads"), scans
        ),
        "index.node_accesses_per_round": ratio(get("counters.index_node_accesses"), searches),
        "index.io_accesses_per_round": ratio(get("counters.index_io_accesses"), searches),
        "ann.fallbacks": get("counters.ann_fallbacks"),
        "resilience.retries": get("counters.shard_retries") + get("counters.compile_retries"),
        "resilience.shard_failures": get("counters.shard_failures"),
    }


# ----------------------------------------------------------------------
# Pages
# ----------------------------------------------------------------------


def recall(approximate: Sequence[int], exact: Sequence[int]) -> float:
    """``|approximate ∩ exact| / k`` of one approximate page."""
    return len(set(approximate) & set(exact)) / len(exact) if exact else 1.0


# ----------------------------------------------------------------------
# The layer → end-to-end map
# ----------------------------------------------------------------------

#: Counters that must not move in a measured phase: each counts a fault
#: the program absorbed (a retry, a failed worker task, a batch replayed
#: serially, a shed request) without failing the request.  No workload
#: injects faults, so any increment fails the run like an error would.
MUST_STAY_ZERO = (
    "batching.fallbacks",
    "batching.shed",
    "workers.tasks_failed",
    "resilience.retries",
    "resilience.shard_failures",
)

#: Every end-to-end metric ``run.py`` reports, with its unit.  Tail
#: percentiles appear only where they exist.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "round_p50_ms": "ms",
    "round_p95_ms": "ms",
    "page_p50_ms": "ms",
    "page_p95_ms": "ms",
    "pages_per_s": "1/s",
    "error_frac": "frac",
    "ann_recall": "frac",
    "peak_rss_mb": "MB",
    "rss_mb": "MB",
}

#: Every workload, for layers all of them exercise.
ALL = ("scan_diag", "scan_inverse", "paper_index", "browse_ann")
SCANS = ("scan_diag", "scan_inverse")

#: Which end-to-end metrics each per-layer metric should move, and on
#: which workloads.  A per-layer metric named ``<stem>.page`` or
#: ``<stem>.round`` inherits the row of ``<stem>``.  Rows name only
#: end-to-end metrics ``BENCHMARK.json`` bounds, except the counters of
#: :data:`MUST_STAY_ZERO`, which answer to ``error_frac``.  The ``obs``
#: and ``trace`` rows measure the measurement and move nothing.
LAYER_MAP: Dict[str, tuple] = {
    "server.edge_ms": (("pages_per_s",), ("browse_ann",)),
    "server.http_self_ms": (("pages_per_s",), ("browse_ann",)),
    "engine.self_ms": (("pages_per_s",), ("browse_ann",)),
    "cache.hit_rate": (("pages_per_s",), ("browse_ann",)),
    "qcluster.classify_ms": (("round_p50_ms",), ALL),
    "qcluster.merge_ms": (("round_p50_ms",), ("scan_inverse", "browse_ann")),
    "kernels.compile_ms": (("round_p50_ms",), ALL),
    "kernels.cache_hit_rate": (("round_p50_ms",), ALL),
    "batching.queue_wait_ms": (("round_p50_ms", "pages_per_s"), SCANS),
    "batching.batch_ms": (("round_p50_ms", "pages_per_s"), SCANS),
    "batching.mean_batch_size": (("pages_per_s",), SCANS),
    "batching.fallbacks": (("error_frac",), SCANS),
    "batching.shed": (("error_frac",), SCANS),
    "scan.self_ms": (("round_p50_ms", "pages_per_s"), SCANS),
    "scan.rows_scored_per_query": (("round_p50_ms", "pages_per_s"), SCANS),
    "progressive.refine_ms": (("round_p50_ms", "pages_per_s"), ("scan_inverse",)),
    "progressive.refine_fraction": (("round_p50_ms", "pages_per_s"), ("scan_inverse",)),
    "progressive.pruned_per_query": (("round_p50_ms", "pages_per_s"), ("scan_inverse",)),
    "workers.scan_ms": (("round_p50_ms", "pages_per_s"), ("scan_diag",)),
    "workers.ipc_ms": (("round_p50_ms", "pages_per_s"), ("scan_diag",)),
    "workers.tasks_per_query": (("round_p50_ms", "pages_per_s"), ("scan_diag",)),
    "workers.tasks_failed": (("error_frac",), ("scan_diag",)),
    "store.block_reads": (("round_p50_ms", "pages_per_s"), ("scan_diag",)),
    "index.search_ms": (("round_p50_ms", "pages_per_s"), ("paper_index",)),
    "index.node_accesses_per_round": (("round_p50_ms", "setup_s"), ("paper_index",)),
    "index.io_accesses_per_round": (("round_p50_ms", "setup_s"), ("paper_index",)),
    "ann.search_ms": (("round_p50_ms", "ann_recall"), ("browse_ann",)),
    "ann.fallbacks": (("round_p50_ms", "ann_recall"), ("browse_ann",)),
    "resilience.retries": (("error_frac",), ALL),
    "resilience.shard_failures": (("error_frac",), ALL),
    "obs.tracing_overhead": ((), ()),
    "trace.unattributed_share": ((), ()),
}


def layer_row(name: str) -> Optional[tuple]:
    """The :data:`LAYER_MAP` row of a per-layer metric name."""
    stem = name.rsplit(".", 1)[0] if name.endswith((".page", ".round")) else name
    return LAYER_MAP.get(stem)


def unreached(name: str, workload: str) -> bool:
    """Whether ``workload`` never reaches the layer of metric ``name``.

    Only then may a metric the run did not measure read 0: on a workload
    the layer map names, a missing stage is an error, not a free layer.
    """
    row = layer_row(name)
    return row is not None and workload not in row[1]
