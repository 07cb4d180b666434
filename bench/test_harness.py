"""Unit tests of the benchmark's own bookkeeping (``python -m pytest bench -q``).

They need neither the ``repro`` sources nor a server: the ledger is
pure arithmetic over span dicts and ``/stats`` snapshots.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import ledger
from compare import compare, verdict

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def span(name, span_id, start, duration, children=(), events=(), **attributes):
    return {
        "name": name,
        "span_id": span_id,
        "start_time": start,
        "duration_s": duration,
        "attributes": attributes,
        "events": list(events),
        "children": list(children),
    }


def batched_trees():
    """Two batched rounds sharing one micro-batch on the process backend.

    Request A led the batch (its scan span holds the batch span, which
    holds two grafted worker scans running in parallel); request B rode
    along, so its trace only links to the batch.
    """
    workers = [
        span("scan", "w1.s1", 10.020, 0.060, path="worker"),
        span("scan", "w2.s1", 10.030, 0.060, path="worker"),
    ]
    batch = span("batch", "sB", 10.010, 0.090, workers)
    link = lambda wait: {  # noqa: E731
        "name": "batch_link",
        "fields": {"batch_span_id": "sB", "queue_wait_s": wait},
    }
    a = span(
        "http_request",
        "a0",
        10.000,
        0.110,
        [
            span(
                "feedback",
                "a1",
                10.000,
                0.105,
                [
                    span("classify", "a2", 10.000, 0.002),
                    span("merge", "a3", 10.002, 0.003),
                    span("scan", "a4", 10.005, 0.100, [batch], [link(0.005)], path="batched"),
                ],
            )
        ],
        request_id="A",
    )
    b = span(
        "http_request",
        "b0",
        10.004,
        0.102,
        [
            span(
                "feedback",
                "b1",
                10.004,
                0.101,
                [span("scan", "b4", 10.006, 0.098, [], [link(0.004)], path="batched")],
            )
        ],
        request_id="B",
    )
    return a, b


def test_charges_add_up_to_the_root_and_split_parallel_workers():
    a, b = batched_trees()
    spans = ledger.index_spans([a, b])
    charges = ledger.request_ledger(a, spans, client_s=0.120)
    # Worker spans cover 10.020-10.090, overlapping during 10.030-10.080.
    assert charges["workers.scan"] == pytest.approx(0.070)
    # The batch span's own time (10.010-10.020 and 10.090-10.100) is IPC.
    assert charges["workers.ipc"] == pytest.approx(0.020)
    assert charges[ledger.QUEUE_WAIT] == pytest.approx(0.005)
    assert charges["qcluster.classify"] == pytest.approx(0.002)
    assert charges["qcluster.merge"] == pytest.approx(0.003)
    assert charges["server.edge"] == pytest.approx(0.010)
    assert charges["batching.batch"] == pytest.approx(0.090)
    in_root = sum(
        value
        for name, value in charges.items()
        if name not in ("server.edge", "batching.batch")
    )
    assert in_root == pytest.approx(0.110)


def test_batch_member_inherits_the_linked_batch():
    a, b = batched_trees()
    charges = ledger.request_ledger(b, ledger.index_spans([a, b]), client_s=0.102)
    assert charges["workers.scan"] == pytest.approx(0.070)
    assert charges[ledger.QUEUE_WAIT] == pytest.approx(0.004)
    # The scan span's own time: 10.006-10.104 minus wait and batch.
    assert charges["scan.self"] == pytest.approx(0.098 - 0.004 - 0.090)
    assert sum(
        value for name, value in charges.items() if name not in ("server.edge", "batching.batch")
    ) == pytest.approx(0.102)


def test_unattributed_share_counts_only_the_root_self_time():
    a, b = batched_trees()
    spans = ledger.index_spans([a, b])
    charges = ledger.request_ledger(a, spans, client_s=0.120)
    # http_request self 0.005 (10.105-10.110); feedback self 0 (its
    # children tile 10.000-10.105).
    assert charges["server.http_self"] == pytest.approx(0.005)
    assert charges.get("engine.self", 0.0) == pytest.approx(0.0)
    assert ledger.unattributed_share([charges], [0.120]) == pytest.approx(0.005 / 0.120)


def test_unknown_spans_count_as_unattributed():
    # A stage the ledger does not know (say, a renamed classify span).
    root = span(
        "http_request",
        "r",
        1.0,
        0.100,
        [span("feedback", "f", 1.0, 0.100, [span("classify_v2", "c", 1.0, 0.060)])],
    )
    charges = ledger.charges(root)
    assert charges["other.classify_v2"] == pytest.approx(0.060)
    assert "qcluster.classify" not in charges
    assert ledger.unattributed_share([charges], [0.100]) == pytest.approx(1.0)


def test_only_unreached_layers_may_read_zero():
    assert ledger.unreached("workers.scan_ms.page", "paper_index")
    assert not ledger.unreached("workers.scan_ms.page", "scan_diag")
    assert not ledger.unreached("qcluster.classify_ms.round", "browse_ann")
    assert not ledger.unreached("round_p50_ms", "scan_diag")  # not a layer


def test_children_are_clipped_to_their_parent():
    root = span("http_request", "r", 1.0, 0.010, [span("classify", "c", 0.999, 0.020)])
    charges = ledger.charges(root)
    assert charges == {"qcluster.classify": pytest.approx(0.010)}


def test_tail_percentile_needs_ten_samples_beyond():
    values = list(range(1, 200))  # 199 samples: only 9 rank above p95
    assert ledger.samples_beyond(199, 95) == 9
    assert ledger.tail_percentile(values, 95) is None
    values.append(200)
    assert ledger.samples_beyond(200, 95) == 10
    assert ledger.tail_percentile(values, 95) == 190.0
    assert ledger.nearest_rank([3.0, 1.0, 2.0], 50) == 2.0


def test_stats_diff_and_counter_metrics():
    before = {
        "counters": {"cache_hits": 4, "cache_misses": 6, "fallback_scans": 6},
        "latency": {"index_search": {"count": 1}},
        "worker_pool": {"tasks_completed": 10, "tasks_failed": 0, "busy": 3},
        "batching": {"batches": 5, "batched_queries": 5, "mean_batch_size": 1.0},
    }
    after = {
        "counters": {
            "cache_hits": 10,
            "cache_misses": 10,
            "fallback_scans": 10,
            "candidates_refined": 30,
            "candidates_pruned": 10,
        },
        "latency": {"index_search": {"count": 1}},
        "worker_pool": {"tasks_completed": 18, "tasks_failed": 0, "busy": 0},
        "batching": {"batches": 7, "batched_queries": 9, "mean_batch_size": 1.3},
    }
    diff = ledger.stats_diff(before, after)
    assert diff["counters.cache_hits"] == 6
    assert diff["counters.candidates_refined"] == 30
    assert diff["worker_pool.tasks_completed"] == 8
    assert "worker_pool.busy" not in diff  # a gauge, not a counter
    metrics = ledger.counter_metrics(diff)
    assert metrics["cache.hit_rate"] == pytest.approx(0.6)
    assert metrics["batching.mean_batch_size"] == pytest.approx(2.0)
    assert metrics["workers.tasks_per_query"] == pytest.approx(2.0)
    assert metrics["progressive.refine_fraction"] == pytest.approx(0.75)
    assert metrics["index.node_accesses_per_round"] == 0.0


def test_recall():
    assert ledger.recall([1, 2, 3, 4], [4, 3, 2, 1]) == 1.0
    assert ledger.recall([1, 2, 9, 8], [1, 2, 3, 4]) == 0.5


def test_verdicts():
    assert verdict([100] * 5, [105] * 5, "lower", 0.10) == "ok"
    assert verdict([100] * 5, [115] * 5, "lower", 0.10) == "worse"
    assert verdict([100] * 5, [85] * 5, "higher", 0.10) == "worse"
    noisy = [70, 100, 130, 80, 120]
    assert verdict(noisy, [100] * 5, "lower", 0.10) == "unresolved"
    # Too noisy to resolve, unless every new run beats every old one.
    assert verdict(noisy, [60] * 5, "lower", 0.10) == "ok"


def test_compare_pairs_by_workload_and_metric():
    metric = {"name": "round_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}
    benchmark = {"end_to_end": [metric]}
    run = lambda seed, value: {  # noqa: E731
        "workload": "w",
        "seed": seed,
        "metrics": {"round_p50_ms": {"value": value, "unit": "ms"}},
    }
    rows = compare(benchmark, [run(0, 10.0), run(1, 10.2)], [run(0, 12.0), run(1, 12.2)])
    assert [(row["workload"], row["metric"], row["verdict"]) for row in rows] == [
        ("w", "round_p50_ms", "worse")
    ]
    assert rows[0]["wins"] == "0/2"


def test_benchmark_json_is_valid():
    doc = json.loads(BENCHMARK.read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert len(BENCHMARK.read_bytes()) <= 64 * 1024
    assert doc["command"][:2] == ["python3", "bench/run.py"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    keys = ("workloads", "end_to_end", "per_layer")
    names = [entry["name"] for key in keys for entry in doc[key]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["name"] in ledger.END_TO_END
        assert metric["unit"] == ledger.END_TO_END[metric["name"]]
        assert metric["better"] in ("lower", "higher")
        assert metric["bound"] > 0
    tracked = {metric["name"] for metric in doc["end_to_end"]}
    assert "setup_s" in tracked
    workloads = {workload["name"] for workload in doc["workloads"]}
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert metric["better"] in ("lower", "higher")
        row = ledger.layer_row(metric["name"])
        assert row is not None, f"{metric['name']} has no layer-map row"
        moves, on = row
        if metric["name"].startswith(("obs.", "trace.")):
            continue  # measures the measurement: moves nothing by design
        assert moves and set(moves) <= tracked, f"{metric['name']} moves an untracked metric"
        assert on and set(on) <= workloads, metric["name"]


def test_layer_map_names_printed_metrics():
    for stem, (moves, on) in ledger.LAYER_MAP.items():
        assert set(moves) <= set(ledger.END_TO_END), stem
        assert set(on) <= set(ledger.ALL), stem
    # Counters that must stay 0 exist and answer to error_frac.
    counters = ledger.counter_metrics({})
    for name in ledger.MUST_STAY_ZERO:
        assert counters[name] == 0.0
        assert ledger.layer_row(name)[0] == ("error_frac",), name


def test_workloads_match_benchmark_json():
    import workloads

    doc = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
