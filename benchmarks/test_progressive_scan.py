"""Progressive filter-and-refine scan benchmark: the Eq. 5 cost claim.

Times the naive full scan (every row pays the complete aggregate
distance) against :class:`repro.index.linear.LinearScan`, whose
:func:`repro.core.progressive.progressive_topk` path scores a
whitened dimension prefix, prunes rows whose monotone
Eq. 5 lower bound already exceeds the running k-th best, and refines
only the survivors.  The orderings must be byte-identical — the filter
may only ever change *cost* — and that identity is asserted in every
mode, so the CI smoke run doubles as an ordering-divergence gate.

Workload: an anisotropic rotated database (power-law axis scales, the
regime PCA-ordered prefixes exploit) with feedback-style queries whose
clusters come from real database neighbourhoods, exactly how Qcluster
builds them from marked results.  Far-away synthetic centers would
make every distance concentrate and nothing prune.

Writes ``BENCH_progressive.json`` (override via ``QCLUSTER_BENCH_OUT``)
with timings, speedups, refine fractions and per-prefix-level pruning
rates.  ``QCLUSTER_BENCH_SMALL=1`` shrinks the workload for CI and
skips the absolute speedup assertion (call overhead dominates tiny
runs) but never the exactness checks.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.covariance import get_scheme
from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.core.progressive import exact_top_k, progressive_topk, use_progressive
from repro.index.linear import LinearScan

SMALL = os.environ.get("QCLUSTER_BENCH_SMALL", "") == "1"

N = 3_000 if SMALL else 40_000
P = 32 if SMALL else 128
G = 4
K = 20
NEIGHBOURHOOD = 64
REPEATS = 3 if SMALL else 11

OUT_PATH = Path(os.environ.get("QCLUSTER_BENCH_OUT", "BENCH_progressive.json"))

SCHEME_MIXES = {
    "inverse": ["inverse"] * G,
    "mixed": ["inverse", "diagonal"] * (G // 2),
    "diagonal": ["diagonal"] * G,
}


def anisotropic_database(rng: np.random.Generator) -> np.ndarray:
    """Rotated power-law spectrum: realistic feature-space anisotropy."""
    scales = 1.0 / np.sqrt(np.arange(1, P + 1))
    rotation, _ = np.linalg.qr(rng.standard_normal((P, P)))
    return np.ascontiguousarray(
        (rng.standard_normal((N, P)) * scales) @ rotation.T
    )


def feedback_query(
    database: np.ndarray, rng: np.random.Generator, scheme_names
) -> DisjunctiveQuery:
    """Clusters fit to database neighbourhoods around in-data anchors."""
    points = []
    for scheme_name in scheme_names:
        scheme = get_scheme(scheme_name)
        anchor = database[rng.integers(0, database.shape[0])]
        gaps = database - anchor
        nearest = np.argpartition(
            np.einsum("ij,ij->i", gaps, gaps), NEIGHBOURHOOD
        )[:NEIGHBOURHOOD]
        cloud = database[nearest]
        info = scheme.invert(np.cov(cloud, rowvar=False))
        points.append(
            QueryPoint(
                center=cloud.mean(axis=0),
                inverse=info.inverse,
                weight=1.0,
                diagonal=info.diagonal,
            )
        )
    return DisjunctiveQuery(points)


def interleaved_best_of(timed: dict, repeats: int = REPEATS) -> dict:
    """Minimum wall time per callable over ``repeats`` interleaved rounds."""
    timings = {name: [] for name in timed}
    for _ in range(repeats):
        for name, callable_ in timed.items():
            start = time.perf_counter()
            callable_()
            timings[name].append(time.perf_counter() - start)
    return {name: min(values) for name, values in timings.items()}


@pytest.fixture(scope="module")
def payload():
    rng = np.random.default_rng(37)
    database = anisotropic_database(rng)
    queries = {
        mix: feedback_query(database, rng, schemes)
        for mix, schemes in SCHEME_MIXES.items()
    }

    scan = LinearScan(database)
    timed = {}
    stats = {}
    for mix, query in queries.items():
        def full_run(query=query):
            with use_progressive(False):
                query.distances(database)

        def progressive_run(query=query):
            scan.knn(query, K)

        full_run()  # warm-up: kernel compile + allocations
        progressive_run()  # warm-up: plan + scan-context build
        # None: the plan is ineligible and LinearScan scans in full.
        stats[mix] = progressive_topk(database, query, K)
        timed[f"{mix}:full"] = full_run
        timed[f"{mix}:progressive"] = progressive_run
    best = interleaved_best_of(timed)

    scans = {}
    for mix in SCHEME_MIXES:
        result = stats[mix]
        eligible = result is not None
        refined = result.stats.refined if eligible else N
        survivors = list(result.stats.survivors_per_level) if eligible else []
        entry = {
            "eligible": eligible,
            "full_seconds": best[f"{mix}:full"],
            "progressive_seconds": best[f"{mix}:progressive"],
            "speedup": best[f"{mix}:full"] / best[f"{mix}:progressive"],
            "candidates_refined": refined,
            "candidates_pruned": N - refined,
            "refine_fraction": refined / N,
            "schedule": list(result.stats.schedule) if eligible else [],
            "survivors_per_level": survivors,
            "pruning_rate_per_level": [1.0 - alive / N for alive in survivors],
        }
        if not eligible:
            entry["note"] = (
                "pure-diagonal scans are memory-bound O(N*p); a column "
                "prefix re-reads the same cache lines, so the plan is "
                "documented ineligible and the full scan runs instead"
            )
        scans[mix] = entry

    data = {
        "n": N,
        "p": P,
        "g": G,
        "k": K,
        "repeats": REPEATS,
        "small_mode": SMALL,
        "scans": scans,
    }
    OUT_PATH.write_text(json.dumps(data, indent=2) + "\n")
    return data


class TestProgressiveScanBenchmark:
    def test_writes_benchmark_json(self, payload):
        assert OUT_PATH.exists()
        on_disk = json.loads(OUT_PATH.read_text())
        assert on_disk["n"] == N and on_disk["p"] == P and on_disk["k"] == K
        assert set(on_disk["scans"]) == set(SCHEME_MIXES)

    def test_orderings_byte_identical_in_every_mode(self, payload):
        """The divergence gate: filtered and naive top-k must agree
        exactly — indices AND distances — in SMALL mode too."""
        rng = np.random.default_rng(41)
        database = anisotropic_database(rng)
        for mix, schemes in SCHEME_MIXES.items():
            query = feedback_query(database, rng, schemes)
            result = LinearScan(database).knn(query, K)
            with use_progressive(False):
                reference = query.distances(database)
            top = exact_top_k(reference, K)
            np.testing.assert_array_equal(result.indices, top)
            np.testing.assert_array_equal(result.distances, reference[top])

    def test_whitened_scans_prune(self, payload):
        for mix in ("inverse", "mixed"):
            entry = payload["scans"][mix]
            assert entry["eligible"]
            assert entry["candidates_pruned"] > 0
            assert entry["refine_fraction"] < 1.0
            assert (
                entry["candidates_pruned"] + entry["candidates_refined"] == N
            )
            # Later prefix levels only ever shrink the survivor set.
            survivors = entry["survivors_per_level"]
            assert survivors == sorted(survivors, reverse=True)

    def test_diagonal_scan_documented_fallback(self, payload):
        entry = payload["scans"]["diagonal"]
        assert not entry["eligible"]
        assert entry["refine_fraction"] == 1.0
        assert entry["candidates_pruned"] == 0

    def test_inverse_scan_speedup_meets_acceptance_bar(self, payload):
        """Acceptance: >=3x on the full-inverse scheme at N=40k, p=128,
        k=20 with byte-identical orderings."""
        entry = payload["scans"]["inverse"]
        print(
            f"\nprogressive vs full scan at N={N}, p={P}, g={G}, k={K}: "
            f"{entry['speedup']:.2f}x "
            f"(refine fraction {entry['refine_fraction']:.4f}, "
            f"pruned {entry['candidates_pruned']}/{N})"
        )
        mixed = payload["scans"]["mixed"]
        print(
            f"mixed scheme: {mixed['speedup']:.2f}x "
            f"(refine fraction {mixed['refine_fraction']:.4f})"
        )
        if SMALL:
            pytest.skip("small smoke run: timings dominated by call overhead")
        assert entry["speedup"] >= 3.0
        assert payload["scans"]["mixed"]["speedup"] >= 1.0
