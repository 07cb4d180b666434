"""Cluster-merging stage (paper Section 4.3, Algorithm 3).

After classification the cluster list may be fragmented; this stage
shrinks it by merging any pair whose mean vectors are statistically
indistinguishable under Hotelling's two-sample ``T^2`` test
(Equations 14-16).  The paper's Algorithm 3:

1. compute ``T^2`` and critical distance ``c^2`` for all pairs,
2. process pairs in ascending order of how decisively they pass,
3. merge a pair whenever ``T^2 <= c^2``,
4. if no pair passes but the cluster budget is still exceeded, *increase
   the critical distance* by relaxing ``alpha`` (line 8) and retry,
5. stop once the number of clusters is within the given size.

Merging combines cluster statistics with the closed-form Equations 11-13
— no re-clustering of raw points — though members are concatenated so
that later rounds and the quality measure retain them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..obs import add_event
from ..stats.chi2 import effective_radius
from ..stats.hotelling import HotellingResult, critical_distance, hotelling_t2
from .cluster import Cluster
from .covariance import CovarianceScheme, DiagonalScheme

__all__ = ["MergeRecord", "ClusterMerger", "pairwise_merge_test"]


def _pooled_t2(cluster_i: Cluster, cluster_j: Cluster, scheme: CovarianceScheme) -> float:
    """``T^2`` of Equation 14 under the pair's own pooled covariance (Eq. 15)."""
    total_weight = cluster_i.weight + cluster_j.weight
    pooled = (cluster_i.scatter + cluster_j.scatter) / total_weight
    pooled_inverse = scheme.invert(pooled).inverse
    return hotelling_t2(
        cluster_i.centroid,
        cluster_j.centroid,
        pooled_inverse,
        cluster_i.weight,
        cluster_j.weight,
    )


def pairwise_merge_test(
    cluster_i: Cluster,
    cluster_j: Cluster,
    scheme: Optional[CovarianceScheme] = None,
    significance_level: float = 0.05,
) -> HotellingResult:
    """Hotelling two-sample test between two clusters (Equations 14-16).

    The pooled covariance follows Equation 15: the sum of the two
    weighted scatter matrices divided by the combined relevance mass,
    inverted under the chosen scheme.
    """
    if scheme is None:
        scheme = DiagonalScheme()
    if cluster_i.dimension != cluster_j.dimension:
        raise ValueError("clusters disagree on dimensionality")
    statistic = _pooled_t2(cluster_i, cluster_j, scheme)
    critical = critical_distance(
        cluster_i.dimension, cluster_i.weight, cluster_j.weight, significance_level
    )
    return HotellingResult(
        statistic=statistic,
        critical=critical,
        reject_equal_means=statistic > critical,
        df1=float(cluster_i.dimension),
        df2=cluster_i.weight + cluster_j.weight - cluster_i.dimension - 1.0,
    )


class _Pair(NamedTuple):
    """One pair's alpha-free merge statistic and what its critical needs."""

    first: int
    second: int
    statistic: float
    weight_i: float
    weight_j: float
    df2: float


@dataclass(frozen=True)
class MergeRecord:
    """Audit record of one executed merge.

    Attributes:
        first, second: indices (into the pre-merge list) of the merged pair.
        statistic: the ``T^2`` value at merge time.
        critical: the critical distance it was compared against.
        significance_level: the (possibly relaxed) alpha in force.
        forced: ``True`` when the merge was imposed by the cluster budget
            after alpha bottomed out, not by the statistical test.
    """

    first: int
    second: int
    statistic: float
    critical: float
    significance_level: float
    forced: bool


class ClusterMerger:
    """Algorithm 3: reduce the cluster list via Hotelling ``T^2`` tests.

    Args:
        scheme: covariance inversion scheme shared with the classifier.
        significance_level: initial alpha of the merge test.
        max_clusters: the "given size" the paper stops at.
        min_alpha: floor of the relaxation loop; below it remaining
            over-budget clusters are merged by closest ``T^2`` regardless
            of the test.
        relax_factor: multiplicative alpha relaxation per round (paper
            line 8 "increase critical distance using alpha").
        low_power_margin: slack multiplier on the chi-square radius used
            for pairs whose mass is too small for the F test (see
            ``_pair_statistics``).
    """

    def __init__(
        self,
        scheme: Optional[CovarianceScheme] = None,
        significance_level: float = 0.05,
        max_clusters: int = 5,
        min_alpha: float = 1e-4,
        relax_factor: float = 0.5,
        low_power_margin: float = 3.0,
    ) -> None:
        if max_clusters < 1:
            raise ValueError(f"max_clusters must be at least 1, got {max_clusters}")
        if not 0.0 < relax_factor < 1.0:
            raise ValueError(f"relax_factor must lie strictly in (0, 1), got {relax_factor}")
        if not 0.0 < min_alpha <= significance_level:
            raise ValueError(
                f"min_alpha must lie in (0, significance_level], got {min_alpha}"
            )
        if low_power_margin < 1.0:
            raise ValueError(
                f"low_power_margin must be at least 1, got {low_power_margin}"
            )
        self.scheme = scheme if scheme is not None else DiagonalScheme()
        self.significance_level = significance_level
        self.max_clusters = max_clusters
        self.min_alpha = min_alpha
        self.relax_factor = relax_factor
        self.low_power_margin = low_power_margin

    # ------------------------------------------------------------------

    def _global_pooled_inverse(self, clusters: Sequence[Cluster]) -> np.ndarray:
        """Inverse of the all-cluster pooled covariance (prior information).

        Used as the reference scale for pairs whose combined relevance
        mass is too small for the F test (``m_i + m_j - p - 1 < p``): the
        paper's framework treats previous-iteration statistics as priors,
        and the pooled within-cluster covariance of *all* clusters is the
        best available estimate of the local data scale.
        """
        dimension = clusters[0].dimension
        total_scatter = np.zeros((dimension, dimension))
        total_weight = 0.0
        for cluster in clusters:
            total_scatter += cluster.scatter
            total_weight += cluster.weight
        return self.scheme.invert(total_scatter / total_weight).inverse

    def _pair_statistics(self, clusters: Sequence[Cluster]) -> List[_Pair]:
        """Every pair's merge statistic, in ``(i, j)`` order.

        No statistic depends on alpha, so one cluster list is scored once
        and every alpha relaxation reuses the scores.  The branch is
        picked from the masses before any work is done:

        * when the pair's combined relevance mass gives the F test real
          power (``df2 = m_i + m_j - p - 1 >= p``) the statistic is
          Equation 16's ``T^2`` under the pair's own pooled covariance;
        * below that the pair's own scatter is uninformative and the F
          quantile explodes (with one denominator degree of freedom the
          99.9th percentile is ~10^5, accepting arbitrarily distant
          pairs), so the statistic is the centroid separation measured
          in the global pooled within-cluster covariance ``G``, judged
          against an *effective radius* in the spirit of Lemma 1 (see
          :meth:`_best_pair`).  ``G`` is inverted only when some pair
          needs it, once per cluster list.
        """
        dimension = clusters[0].dimension
        weights = [cluster.weight for cluster in clusters]
        centroids = [cluster.centroid for cluster in clusters]
        global_inverse: Optional[np.ndarray] = None
        pairs: List[_Pair] = []
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                df2 = weights[i] + weights[j] - dimension - 1.0
                if df2 >= dimension:
                    statistic = _pooled_t2(clusters[i], clusters[j], self.scheme)
                else:
                    if global_inverse is None:
                        global_inverse = self._global_pooled_inverse(clusters)
                    diff = centroids[i] - centroids[j]
                    statistic = float(diff @ global_inverse @ diff)
                pairs.append(_Pair(i, j, statistic, weights[i], weights[j], df2))
        return pairs

    def _best_pair(
        self, pairs: Sequence[_Pair], dimension: int, alpha: float
    ) -> Tuple[_Pair, float]:
        """The pair with the smallest ``T^2 / c^2`` ratio and its ``c^2``.

        Ordering by the ratio rather than raw ``T^2`` matches the spirit
        of Algorithm 3's ascending queue while staying well-defined when
        pairs have different degrees of freedom (different weights give
        different critical values).  F-test pairs are judged against
        Equation 16's critical distance; low-mass pairs against
        ``low_power_margin * chi2_p(alpha)`` — the margin absorbs the
        scatter deflation that hierarchical splitting of one mode
        introduces, while distant modes exceed the threshold by orders
        of magnitude regardless.
        """
        low_mass_critical = self.low_power_margin * effective_radius(dimension, alpha)
        best_key = np.inf
        best: Optional[Tuple[_Pair, float]] = None
        for pair in pairs:
            if pair.df2 >= dimension:
                critical = critical_distance(dimension, pair.weight_i, pair.weight_j, alpha)
            else:
                critical = low_mass_critical
            key = pair.statistic / critical
            if key < best_key:
                best_key = key
                best = (pair, critical)
        assert best is not None  # two clusters give a pair with a finite ratio
        return best

    def merge(self, clusters: Sequence[Cluster]) -> Tuple[List[Cluster], List[MergeRecord]]:
        """Run the full merging loop and return the reduced cluster list.

        The input sequence is not mutated; merged clusters are rebuilt via
        :meth:`Cluster.merged_with`.
        """
        working = list(clusters)
        records: List[MergeRecord] = []
        alpha = self.significance_level
        while len(working) > 1:
            # Every merge changes G, so each new cluster list is rescored.
            pairs = self._pair_statistics(working)
            while True:
                pair, critical = self._best_pair(pairs, working[0].dimension, alpha)
                if pair.statistic <= critical:
                    forced = False
                    break
                if len(working) <= self.max_clusters:
                    # Within budget and nothing statistically mergeable: the
                    # closest pair's T^2 exceeded its critical distance.
                    add_event(
                        "t2_merge",
                        accepted=False,
                        statistic=pair.statistic,
                        critical=critical,
                        alpha=alpha,
                        forced=False,
                    )
                    return working, records
                # Over budget: relax alpha (grow the critical distance) and,
                # at the floor, force-merge the closest pair.
                if alpha > self.min_alpha:
                    relaxed = max(alpha * self.relax_factor, self.min_alpha)
                    add_event("alpha_relaxed", alpha_from=alpha, alpha_to=relaxed)
                    alpha = relaxed
                    continue
                forced = True
                break
            add_event(
                "t2_merge",
                accepted=True,
                statistic=pair.statistic,
                critical=critical,
                alpha=alpha,
                forced=forced,
            )
            i, j = pair.first, pair.second
            records.append(
                MergeRecord(
                    first=i,
                    second=j,
                    statistic=pair.statistic,
                    critical=critical,
                    significance_level=alpha,
                    forced=forced,
                )
            )
            merged = working[i].merged_with(working[j])
            working = [c for k, c in enumerate(working) if k not in (i, j)]
            working.append(merged)
        return working, records
