"""End-to-end benchmark of the served relevance-feedback loop.

Usage::

    python3 bench/run.py [--workload NAME|all] [--seed N] [--trace 0|1]
                         [--out results.json]

The measured phase lasts ``run_seconds`` of ``BENCHMARK.json``; a
``--seconds`` argument is accepted only with that value.

Each workload gets fresh server processes (``serve.py``: HTTP front-end →
``RetrievalService`` → batching → thread or process shard workers) and
only generated inputs, written from ``--seed``.  Two simulated users on
two keep-alive connections run closed-loop Qcluster sessions against
it.  One run of a workload:

1. writes the collection (``.npy`` or QCSTORE1 store) from the seed;
2. launches the server ``SETUP_LAUNCHES`` times, each time timing
   launch → first page of an untimed warm-up session (``setup_s`` is
   the median), keeping the last server;
3. measures ``run_seconds`` of closed-loop sessions, with ``/stats``
   snapshots before and after;
4. with ``--trace 1``, launches one more server with a recording tracer,
   replays the first quarter of the same sessions, and joins each
   client call to its server trace by ``X-Request-Id``;
5. replays a seeded eighth of the sessions serially in-process on the
   threads backend and byte-compares every page.

Every metric is printed with its unit and sample count; the last line
of standard output is one JSON object ``{correct, attempted, failed,
metrics}``.  With ``--trace 0`` its metrics are the end-to-end metrics
of ``BENCHMARK.json``, with ``--trace 1`` the per-layer ones; ``--workload
all`` (the default) prints both for every workload.  The exit code is 1
when any output was wrong.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
# One BLAS thread per process, inherited by the servers and their shard
# workers: the served stack's parallelism is its two users, the batching
# executor and the workers.  OpenBLAS's default of one thread per core in
# each of three or four processes oversubscribes a two-core machine with
# spinning threads; on scan_inverse that made rounds about 40% slower.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

# Fails fast, before any work, outside a checkout with the sources.
import repro  # noqa: E402,F401
from repro.obs.export import spans_from_jsonl, tree_from_spans  # noqa: E402

import ledger  # noqa: E402
from client import (  # noqa: E402
    Phase,
    RequestIds,
    ServerProcess,
    ServiceApi,
    SessionLog,
    closed_loop,
    fetch_stats,
    run_session,
    warm_up,
)
from workloads import WORKLOADS, Workload, build_service, session_rows, write_inputs  # noqa: E402

#: More sessions than any measured phase can run.
MAX_SESSIONS = 20_000
#: Server launches per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: The traced pass replays the first 1/TRACED_SHARE of the sessions.
TRACED_SHARE = 4
#: The correctness replay covers a seeded 1/REPLAY_SHARE of the sessions.
REPLAY_SHARE = 8
#: The traced pass fails when time no known stage span accounts for
#: exceeds this share of round latency: the ledger must add up.
UNATTRIBUTED_LIMIT = 0.10
#: Mean recall below this fails a run (the floor of the approximate
#: tier's committed recall contract; exact pages must score 1).
RECALL_FLOOR = 0.9
#: Every layer the span ledger charges, in report order.
TIMED_LAYERS = (
    "server.edge",
    "server.http_self",
    "engine.self",
    "qcluster.classify",
    "qcluster.merge",
    "kernels.compile",
    "batching.queue_wait",
    "batching.batch",
    "scan.self",
    "progressive.refine",
    "workers.scan",
    "workers.ipc",
    "index.search",
    "ann.search",
)


class Metrics:
    """Named metrics with unit and sample count, in insertion order."""

    def __init__(self) -> None:
        self.values: Dict[str, Dict[str, Any]] = {}

    def add(self, name: str, value: Optional[float], unit: str, n: int) -> None:
        if value is not None:
            self.values[name] = {"value": float(value), "unit": unit, "n": int(n)}


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def latencies_ms(phase: Phase, kind: str) -> List[float]:
    return [call.latency_s * 1e3 for call in phase.calls if call.kind == kind and call.ok]


def page_mismatches(expected: List[SessionLog], actual: List[SessionLog]) -> int:
    """Pages of ``actual`` whose ids or distances differ from ``expected``.

    JSON floats round-trip exactly, so equality of the decoded lists is
    byte identity of the pages.
    """
    by_index = {log.index: log for log in expected}
    mismatches = 0
    for log in actual:
        reference = by_index[log.index]
        for mine, theirs in zip(log.pages, reference.pages):
            if mine["ids"] != theirs["ids"] or mine["distances"] != theirs["distances"]:
                mismatches += 1
        mismatches += abs(len(log.pages) - len(reference.pages))
    return mismatches


def exact_recalls(measured: List[SessionLog], replayed: List[SessionLog]) -> List[float]:
    """Recall of every measured page against its serial replay."""
    by_index = {log.index: log for log in measured}
    return [
        ledger.recall(page["ids"], exact["ids"])
        for log in replayed
        for page, exact in zip(by_index[log.index].pages, log.pages)
    ]


def serial_replay(
    workload: Workload, path: Path, database, logs: List[SessionLog], seed: int
) -> List[SessionLog]:
    """Replay a seeded eighth of the completed ``logs`` in-process."""
    done = [log for log in logs if log.completed]
    count = math.ceil(len(done) / REPLAY_SHARE)
    rng = np.random.default_rng([seed, 3])
    chosen = sorted(rng.choice(len(done), size=count, replace=False)) if count else []
    service = build_service(workload, path, scan_backend="threads")
    replayed: List[SessionLog] = []

    async def replay() -> None:
        api = ServiceApi(service)
        for position in chosen:
            log = SessionLog(done[position].index, done[position].query_row)
            replayed.append(log)
            await run_session(api, workload, database, log)

    try:
        asyncio.run(replay())
    finally:
        service.shutdown()
    return replayed


def traced_ledgers(
    trace_file: Path, phase: Phase
) -> Dict[str, List[Tuple[Dict[str, float], float]]]:
    """``kind → [(layer charges in s, client latency in s)]`` of the traced pass."""
    with open(trace_file, encoding="utf-8") as lines:
        roots = tree_from_spans(spans_from_jsonl(lines))
    spans = ledger.index_spans(roots)
    by_request = {
        (root.get("attributes") or {}).get("request_id"): root
        for root in roots
        if root.get("name") == "http_request"
    }
    result: Dict[str, List[Tuple[Dict[str, float], float]]] = {"page": [], "round": []}
    for call in phase.calls:
        if call.kind not in result or not call.ok:
            continue
        root = by_request.get(call.request_id)
        if root is None:
            raise RuntimeError(f"no server trace for request {call.request_id}")
        result[call.kind].append(
            (ledger.request_ledger(root, spans, call.latency_s), call.latency_s)
        )
    return result


def end_to_end_metrics(metrics: Metrics, workload: Workload, setups, phase: Phase, report) -> None:
    rounds, pages = latencies_ms(phase, "round"), latencies_ms(phase, "page")
    if not rounds or not pages:
        raise RuntimeError(f"{workload.name}: no successful rounds or pages to measure")
    served = len(rounds) + len(pages)
    values = [
        ("setup_s", statistics.median(setups), len(setups)),
        ("round_p50_ms", ledger.nearest_rank(rounds, 50), len(rounds)),
        ("round_p95_ms", ledger.tail_percentile(rounds, 95), len(rounds)),
        ("page_p50_ms", ledger.nearest_rank(pages, 50), len(pages)),
        ("page_p95_ms", ledger.tail_percentile(pages, 95), len(pages)),
        ("pages_per_s", served / phase.wall_s, served),
        ("peak_rss_mb", report["peak_rss_kb"] / 1024.0, 1),
        ("rss_mb", report["rss_kb"] / 1024.0, 1),
    ]
    for name, value, n in values:
        metrics.add(name, value, ledger.END_TO_END[name], n)


def layer_metrics(metrics: Metrics, ledgers, untraced: Phase, traced: Phase) -> None:
    for kind, entries in ledgers.items():
        others = sorted(
            {name for charges, _ in entries for name in charges if name.startswith("other.")}
        )
        for layer in TIMED_LAYERS + tuple(others):
            values = [charges.get(layer, 0.0) for charges, _ in entries]
            if any(values):  # a layer no request reached stays unmeasured
                metrics.add(f"{layer}_ms.{kind}", ledger.mean(values) * 1e3, "ms", len(values))
    rounds = ledgers["round"]
    share = ledger.unattributed_share(
        [charges for charges, _ in rounds], [latency for _, latency in rounds]
    )
    metrics.add("trace.unattributed_share.round", share, "frac", len(rounds))
    traced_rounds = latencies_ms(traced, "round")
    overhead = ledger.nearest_rank(traced_rounds, 50) / ledger.nearest_rank(
        latencies_ms(untraced, "round"), 50
    )
    metrics.add("obs.tracing_overhead", overhead, "ratio", len(traced_rounds))


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """One run of one workload; returns its result record."""
    out_dir = BENCH_DIR / "out"
    tag = f"{workload.name}-{os.getpid()}"
    path, database = write_inputs(workload, seed, out_dir, tag=str(os.getpid()))
    rows = session_rows(workload, database, seed, MAX_SESSIONS)
    warm_row = session_rows(workload, database, seed, 1, stream=2)[0]
    ids = RequestIds()
    metrics = Metrics()
    problems: List[str] = []
    servers: List[ServerProcess] = []
    try:
        setups = []
        for _ in range(SETUP_LAUNCHES):
            if servers:
                servers[-1].stop()
            servers.append(ServerProcess(workload, path))
            setups.append(warm_up(servers[-1], workload, database, warm_row, ids))
        server = servers[-1]
        before = fetch_stats(server.port, ids)
        phase = closed_loop(
            server.port, workload, database, iter(enumerate(rows)), ids, seconds=seconds
        )
        after = fetch_stats(server.port, ids)
        report = server.stop()
        end_to_end_metrics(metrics, workload, setups, phase, report)
        counters = ledger.counter_metrics(ledger.stats_diff(before, after))
        for name, value in counters.items():
            metrics.add(name, value, "frac" if name.endswith(("rate", "fraction")) else "count", 1)

        attempted = len(phase.calls)
        failed = sum(not call.ok for call in phase.calls)
        problems += phase.errors
        problems += [f"{name} = {counters[name]:g}" for name in ledger.MUST_STAY_ZERO if counters[name]]
        degraded = sum(page["level"] == "degraded" for log in phase.sessions for page in log.pages)
        if degraded:
            failed += degraded
            problems.append(f"{degraded} pages stamped degraded")
        replayed = serial_replay(workload, path, database, phase.sessions, seed)
        mismatches = page_mismatches(phase.sessions, replayed)
        if mismatches:
            failed += mismatches
            pages = sum(len(log.pages) for log in replayed)
            problems.append(f"{mismatches} of {pages} replayed pages differ from serial replay")
        # Approximate pages against the exact page that follows them;
        # on exact workloads, every checked page against its replay.
        recalls = (
            [value for log in phase.sessions for value in log.recalls]
            if workload.browse
            else exact_recalls(phase.sessions, replayed)
        )
        metrics.add("ann_recall", ledger.mean(recalls), ledger.END_TO_END["ann_recall"], len(recalls))
        if metrics.values["ann_recall"]["value"] < RECALL_FLOOR:
            problems.append(f"ann_recall below the {RECALL_FLOOR} floor")

        if trace:
            trace_file = out_dir / f"{tag}.jsonl"
            servers.append(ServerProcess(workload, path, trace_out=trace_file))
            warm_up(servers[-1], workload, database, warm_row, ids)
            share = math.ceil(len(phase.sessions) / TRACED_SHARE)
            traced = closed_loop(
                servers[-1].port,
                workload,
                database,
                iter([(log.index, log.query_row) for log in phase.sessions[:share]]),
                ids,
            )
            servers[-1].stop()
            attempted += len(traced.calls)
            failed += sum(not call.ok for call in traced.calls)
            problems += traced.errors
            differing = page_mismatches(phase.sessions, traced.sessions)
            if differing:
                failed += differing
                problems.append(f"{differing} traced pages differ from the measured ones")
            layer_metrics(metrics, traced_ledgers(trace_file, traced), phase, traced)
            unattributed = metrics.values["trace.unattributed_share.round"]["value"]
            if unattributed > UNATTRIBUTED_LIMIT:
                problems.append(f"unattributed share {unattributed:.3f} > {UNATTRIBUTED_LIMIT}")
        metrics.add("error_frac", failed / attempted, ledger.END_TO_END["error_frac"], attempted)
    finally:
        for server in servers:
            server.kill()
        for leftover in out_dir.glob(f"{tag}*"):
            leftover.unlink()
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics.values,
    }


def print_record(record: Dict[str, Any]) -> None:
    workload = record["workload"]
    print(f"# {workload} seed={record['seed']} seconds={record['seconds']} trace={record['trace']}")
    for name, metric in record["metrics"].items():
        value, unit = metric["value"], metric["unit"]
        print(f"{workload:<13} {name:<38} {value:>14.6g} {unit:<6} n={metric['n']}")
    for problem in record["problems"]:
        print(f"{workload:<13} PROBLEM {problem}")
    sys.stdout.flush()


def reported_metrics(
    record: Dict[str, Any], wanted: List[Dict[str, Any]], prefix: bool
) -> Dict[str, Dict[str, Any]]:
    """The ``wanted`` metrics of one record, keyed for the last line.

    A per-layer metric the run did not measure reads 0 only where the
    layer map says the workload never reaches that layer.  Anywhere else
    its absence marks the record incorrect: a stage span the ledger no
    longer finds must not pass as a layer that costs nothing.
    """
    reported: Dict[str, Dict[str, Any]] = {}
    for entry in wanted:
        name = entry["name"]
        metric = record["metrics"].get(name)
        if metric is None:
            if not ledger.unreached(name, record["workload"]):
                record["problems"].append(f"{name} was not measured")
                record["correct"] = False
                continue
            metric = {"value": 0.0}
        key = f"{record['workload']}.{name}" if prefix else name
        reported[key] = {"value": metric["value"], "unit": entry["unit"]}
    return reported


def main(argv=None) -> int:
    benchmark = load_benchmark()
    run_seconds = benchmark["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=run_seconds, help="must equal run_seconds"
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", type=Path, help="append each run's record to this JSON file")
    args = parser.parse_args(argv)
    if args.seconds != run_seconds:
        # Two commits are comparable only if both measured equally long.
        parser.error(f"--seconds must be {run_seconds}, the run_seconds of BENCHMARK.json")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace if args.trace is not None else args.workload == "all")
    # One workload reports its end-to-end metrics untraced and its
    # per-layer metrics traced; "all" reports both, keyed by workload.
    prefix = args.workload == "all"
    wanted = benchmark["end_to_end"] if prefix or not trace else []
    if trace:
        wanted = wanted + benchmark["per_layer"]
    records = []
    reported: Dict[str, Dict[str, Any]] = {}
    for name in names:
        record = run_workload(WORKLOADS[name], args.seed, run_seconds, trace)
        reported.update(reported_metrics(record, wanted, prefix))
        print_record(record)
        records.append(record)
    if args.out is not None:
        existing = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
        existing["runs"].extend(records)
        args.out.write_text(json.dumps(existing, indent=1) + "\n")

    correct = all(record["correct"] for record in records)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(record["attempted"] for record in records),
                "failed": sum(record["failed"] for record in records),
                "metrics": reported,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
