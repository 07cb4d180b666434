"""Reference Algorithm 3 loop: the merger as it was before it scored pairs once.

Every pass re-tests every pair under the current alpha, always running
the pair's own F test (a p×p inversion) before deciding whether the pair
has the mass for it.  :class:`repro.core.merging.ClusterMerger` must
reproduce its records, tracer events and clusters bit for bit; the
oracle tests and ``benchmarks/test_merge_cost.py`` hold it to that.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.cluster import Cluster
from repro.core.merging import ClusterMerger, MergeRecord, pairwise_merge_test
from repro.obs import Tracer, activate, add_event
from repro.stats.chi2 import effective_radius

__all__ = ["reference_merge", "traced_merge"]


def _global_pooled_inverse(merger: ClusterMerger, clusters: Sequence[Cluster]) -> np.ndarray:
    dimension = clusters[0].dimension
    total_scatter = np.zeros((dimension, dimension))
    total_weight = 0.0
    for cluster in clusters:
        total_scatter += cluster.scatter
        total_weight += cluster.weight
    return merger.scheme.invert(total_scatter / total_weight).inverse


def _pair_result(merger, cluster_i, cluster_j, alpha, global_inverse):
    dimension = cluster_i.dimension
    f_result = pairwise_merge_test(cluster_i, cluster_j, merger.scheme, alpha)
    if f_result.df2 >= dimension:
        return f_result.statistic, f_result.critical
    diff = cluster_i.centroid - cluster_j.centroid
    separation = float(diff @ global_inverse @ diff)
    critical = merger.low_power_margin * effective_radius(dimension, alpha)
    return separation, critical


def _best_pair(merger, clusters, alpha):
    best_key = np.inf
    best = None
    global_inverse = _global_pooled_inverse(merger, clusters)
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            statistic, critical = _pair_result(
                merger, clusters[i], clusters[j], alpha, global_inverse
            )
            key = statistic / critical
            if key < best_key:
                best_key = key
                best = (i, j, statistic, critical)
    return best


def reference_merge(
    merger: ClusterMerger, clusters: Sequence[Cluster]
) -> Tuple[List[Cluster], List[MergeRecord]]:
    """Run the reference loop with ``merger``'s configuration."""
    working = list(clusters)
    records: List[MergeRecord] = []
    if len(working) <= 1:
        return working, records
    alpha = merger.significance_level
    while len(working) > 1:
        i, j, statistic, critical = _best_pair(merger, working, alpha)
        if not statistic > critical:
            forced = False
        elif len(working) <= merger.max_clusters:
            add_event(
                "t2_merge",
                accepted=False,
                statistic=statistic,
                critical=critical,
                alpha=alpha,
                forced=False,
            )
            break
        elif alpha > merger.min_alpha:
            relaxed = max(alpha * merger.relax_factor, merger.min_alpha)
            add_event("alpha_relaxed", alpha_from=alpha, alpha_to=relaxed)
            alpha = relaxed
            continue
        else:
            forced = True
        add_event(
            "t2_merge",
            accepted=True,
            statistic=statistic,
            critical=critical,
            alpha=alpha,
            forced=forced,
        )
        merged = working[i].merged_with(working[j])
        records.append(
            MergeRecord(
                first=i,
                second=j,
                statistic=statistic,
                critical=critical,
                significance_level=alpha,
                forced=forced,
            )
        )
        working = [c for k, c in enumerate(working) if k not in (i, j)]
        working.append(merged)
    return working, records


def traced_merge(merge, merger, clusters):
    """``(records, [(event name, fields)], cluster bytes)`` of one merge call."""
    tracer = Tracer()
    with activate(tracer), tracer.span("merge"):
        merged, records = merge(merger, clusters)
    events = [(event["name"], event["fields"]) for event in tracer.traces()[-1]["events"]]
    state = [(c.points.tobytes(), c.scores.tobytes()) for c in merged]
    return records, events, state
