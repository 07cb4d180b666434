"""ANN tier benchmark: the recall-versus-speedup contract.

Measures the shipped operating point — the hybrid tree's row-budgeted
leaf search with its build-time calibrated budget — over the full
Qcluster feedback workload (adaptive multi-cluster ``scheme="inverse"``
queries, the production shape) against the exact compiled shard scan:
recall@k (mean and worst query), wall-clock speedup, candidate
fraction.  It must clear the committed contract here at full scale:

* recall@k >= 0.9 on the feedback workload, worst query >= 0.75, and
* >= 2x faster than the exact scan.

Writes ``BENCH_ann.json`` (override via ``QCLUSTER_BENCH_ANN_OUT``).
``QCLUSTER_BENCH_SMALL=1`` shrinks the workload for CI and skips the
wall-clock speedup assertion (call overhead dominates tiny runs) but
never the recall assertions — the same small workload, reduced to its
deterministic metrics, is what ``compare_bench.py --suite ann`` gates
against ``baselines/ann.json``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.ann import AnnSweepConfig, run_sweep

SMALL = os.environ.get("QCLUSTER_BENCH_SMALL", "") == "1"
OUT_PATH = Path(os.environ.get("QCLUSTER_BENCH_ANN_OUT", "BENCH_ann.json"))

#: The committed contract, also floored by ``baselines/ann.json``.
RECALL_FLOOR = 0.9
RECALL_MIN_FLOOR = 0.75
SPEEDUP_FLOOR = 2.0


@pytest.fixture(scope="module")
def payload():
    config = AnnSweepConfig.small() if SMALL else AnnSweepConfig()
    data = run_sweep(config)
    data["small_mode"] = SMALL
    data["contract"] = {
        "recall": RECALL_FLOOR,
        "recall_min": RECALL_MIN_FLOOR,
        "speedup": SPEEDUP_FLOOR,
    }
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return data


class TestAnnRecallBenchmark:
    def test_writes_benchmark_json(self, payload):
        assert OUT_PATH.exists()
        on_disk = json.loads(OUT_PATH.read_text())
        assert on_disk["n"] == payload["n"]
        assert on_disk["row_budget"] == payload["row_budget"]

    def test_search_prunes(self, payload):
        """Approximation must buy something: the budget scores a share
        of the collection, never all of it."""
        assert 0.0 < payload["candidate_fraction"] < 1.0
        assert payload["row_budget"] < payload["n"]
        assert payload["node_accesses_per_query"] > 0

    def test_calibration_tracks_measured_recall(self, payload):
        """The build-time estimate stamped on served pages must be in
        the neighbourhood of workload recall, not a fabrication."""
        assert payload["calibrated_recall"] is not None
        assert abs(payload["calibrated_recall"] - payload["recall_mean"]) < 0.25

    def test_recall_contract_at_operating_point(self, payload):
        """The committed floors: recall@k >= 0.9, worst query >= 0.75.

        Asserted unconditionally — small mode relaxes only timings.
        """
        print(
            f"\nANN operating point at N={payload['n']}: "
            f"recall={payload['recall_mean']:.3f} (min {payload['recall_min']:.2f}), "
            f"candidate fraction {payload['candidate_fraction']:.3f} "
            f"(budget {payload['row_budget']} rows), "
            f"speedup {payload['speedup']:.2f}x, "
            f"calibrated {payload['calibrated_recall']:.3f}"
        )
        assert payload["recall_mean"] >= RECALL_FLOOR
        assert payload["recall_min"] >= RECALL_MIN_FLOOR

    def test_speedup_contract_at_operating_point(self, payload):
        """Acceptance: the approximate search >= 2x over the exact scan
        at recall >= 0.9, full scale."""
        if SMALL:
            pytest.skip("small smoke run: timings dominated by call overhead")
        assert payload["speedup"] >= SPEEDUP_FLOOR
        assert payload["recall_mean"] >= RECALL_FLOOR
