"""Cost of the Alg. 3 merge loop at served sizes.

Times :meth:`repro.core.merging.ClusterMerger.merge` on seeded cluster
lists shaped like a served first feedback round: the k = 20 judged
points of one page, drawn around three modes and split into eight
clusters, at p ∈ {16, 32, 64} under both covariance schemes.  At these
masses no pair has the F test's power, so every decision takes the
low-mass branch.  One larger-mass leg (200 points, 25 per cluster,
p = 16) keeps Equation 16's F branch measured too.

Each leg runs the merger and the reference loop of
``tests/core/merge_reference.py`` and asserts identical records, tracer
events and clusters — unconditionally, so the CI smoke run doubles as a
merge-decision divergence gate.  Milliseconds per call are printed for
both; no timing is asserted.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.cluster import Cluster
from repro.core.config import QclusterConfig
from repro.core.merging import ClusterMerger
from tests.core.merge_reference import reference_merge, traced_merge

N_CLUSTERS = 8
MODES = 3
REPEATS = 5

LEGS = [
    pytest.param(20, dimension, scheme, id=f"k20-p{dimension}-{scheme}")
    for dimension in (16, 32, 64)
    for scheme in ("diagonal", "inverse")
] + [
    pytest.param(200, 16, scheme, id=f"k200-p16-{scheme}-f_branch")
    for scheme in ("diagonal", "inverse")
]


def seeded_clusters(points: int, dimension: int, seed: int = 0):
    """``points`` judged vectors around three modes, split into eight clusters."""
    rng = np.random.default_rng([seed, points, dimension])
    modes = 2.0 * rng.standard_normal((MODES, dimension))
    labels = np.sort(np.arange(points) % MODES)
    vectors = modes[labels] + 1.5 * rng.standard_normal((points, dimension))
    return [Cluster(chunk) for chunk in np.array_split(vectors, N_CLUSTERS)]


def served_merger(scheme: str) -> ClusterMerger:
    config = QclusterConfig(scheme=scheme)
    return ClusterMerger(
        scheme=config.covariance_scheme,
        significance_level=config.merge_significance_level,
        max_clusters=config.max_clusters,
        min_alpha=config.min_merge_alpha,
        relax_factor=config.alpha_relax_factor,
    )


def ms_per_call(merge, merger, clusters) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        merge(merger, clusters)
        times.append(time.perf_counter() - start)
    return 1000.0 * float(np.median(times))


@pytest.mark.parametrize("points, dimension, scheme", LEGS)
def test_merge_cost(points, dimension, scheme):
    clusters = seeded_clusters(points, dimension)
    merger = served_merger(scheme)
    expected = traced_merge(reference_merge, merger, clusters)
    assert traced_merge(ClusterMerger.merge, merger, clusters) == expected

    records = expected[0]
    assert records, "the budget of five forces merges of eight clusters"
    first = records[0]
    pair_mass = clusters[first.first].weight + clusters[first.second].weight
    f_branch = pair_mass - dimension - 1.0 >= dimension
    assert f_branch == (points > 20)

    merger_ms = ms_per_call(ClusterMerger.merge, merger, clusters)
    reference_ms = ms_per_call(reference_merge, merger, clusters)
    print(
        f"\nmerge k={points} p={dimension} {scheme}: {merger_ms:.2f} ms/call "
        f"(reference loop {reference_ms:.2f} ms/call, {len(records)} merges, "
        f"{'F' if f_branch else 'low-mass'} branch)"
    )
