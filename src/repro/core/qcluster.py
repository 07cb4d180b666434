"""The Qcluster relevance-feedback engine (paper Algorithm 1).

Ties the pieces together into the loop of Figure 2:

1. **Initial query** — a single query point with a plain Euclidean
   contour (identity ``S^{-1}``); the system knows nothing yet.
2. **First feedback round** — the user's relevant images are clustered
   with the hierarchical method (Section 4.1) and trimmed by the merge
   stage; per-cluster weighted centroids, covariances and relevance
   masses become the multipoint query.
3. **Later rounds** — new relevant images are placed by the adaptive
   Bayesian classifier (Algorithm 2) using the previous round's cluster
   statistics as priors; the cluster list is then compacted by the
   Hotelling-``T^2`` merge stage (Algorithm 3).  No re-clustering from
   scratch ever happens — that is the paper's efficiency claim.

Each round yields a :class:`~repro.core.distance.DisjunctiveQuery`
whose aggregate distance (Equation 5) ranks the database.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..clustering.agglomerative import AgglomerativeClusterer
from ..clustering.kmeans import kmeans
from ..obs import add_event, current_tracer
from .classifier import BayesianClassifier
from .cluster import Cluster  # noqa: F401 - used by both round styles
from .config import QclusterConfig
from .distance import DisjunctiveQuery, QueryPoint
from .merging import ClusterMerger, MergeRecord

__all__ = ["QclusterEngine"]


class QclusterEngine:
    """Adaptive-clustering relevance feedback (the paper's Qcluster).

    Args:
        config: engine tunables; defaults follow the paper (diagonal
            scheme, alpha = 0.05, at most 5 query points).

    Typical use::

        engine = QclusterEngine()
        query = engine.start(example_feature_vector)
        for _ in range(5):
            ranking = np.argsort(query.distances(database))
            relevant, scores = user.judge(ranking[:k])
            query = engine.feedback(database[relevant], scores)
    """

    def __init__(self, config: Optional[QclusterConfig] = None) -> None:
        self.config = config if config is not None else QclusterConfig()
        scheme = self.config.covariance_scheme
        self.classifier = BayesianClassifier(
            scheme=scheme,
            significance_level=self.config.significance_level,
            discriminant=self.config.discriminant,
        )
        self.merger = ClusterMerger(
            scheme=scheme,
            significance_level=self.config.merge_significance_level,
            max_clusters=self.config.max_clusters,
            min_alpha=self.config.min_merge_alpha,
            relax_factor=self.config.alpha_relax_factor,
        )
        self.clusters: List[Cluster] = []
        self.merge_history: List[MergeRecord] = []
        self.iteration = 0
        self._seen: set = set()
        self._initial_point: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Loop entry points
    # ------------------------------------------------------------------

    def start(self, query_point: Sequence[float]) -> DisjunctiveQuery:
        """Begin a session: single query point, plain Euclidean contour."""
        point = np.asarray(query_point, dtype=float)
        if point.ndim != 1:
            raise ValueError(f"query point must be 1-d, got shape {point.shape}")
        self.clusters = []
        self.merge_history = []
        self.iteration = 0
        self._seen = set()
        self._initial_point = point
        identity = np.eye(point.shape[0])
        return DisjunctiveQuery(
            [
                QueryPoint(
                    center=point,
                    inverse=identity,
                    weight=1.0,
                    diagonal=np.ones(point.shape[0]),
                )
            ]
        )

    def feedback(
        self,
        relevant_points: np.ndarray,
        scores: Optional[Sequence[float]] = None,
    ) -> DisjunctiveQuery:
        """Absorb one round of relevance judgments and refine the query.

        Args:
            relevant_points: ``(m, p)`` feature vectors the user marked
                relevant in the latest result set.
            scores: optional relevance scores ``v`` (default 1 each).

        Returns:
            The refined multipoint query for the next retrieval round.
        """
        tracer = current_tracer()
        # Validation and deduplication of the judged points are the
        # front of Algorithm 2 and are charged to the classify stage.
        with tracer.span("classify", clusters_in=len(self.clusters)) as span:
            points, point_scores = self._prepare_feedback(relevant_points, scores)
            span.set("points", int(points.shape[0]))
            if points.shape[0] > 0:
                if not self.clusters:
                    self._initial_clustering(points, point_scores)
                else:
                    self._adaptive_round(points, point_scores)
            span.set("clusters_out", len(self.clusters))
        if points.shape[0] == 0:
            self.iteration += 1
            return self.current_query()
        with tracer.span("merge", clusters_in=len(self.clusters)) as span:
            self.clusters, records = self.merger.merge(self.clusters)
            span.set("clusters_out", len(self.clusters))
            span.set("merges", len(records))
            self.merge_history.extend(records)
            self.iteration += 1
            # The merged clusters become the next query: their inversion
            # is the tail of Algorithm 3's output.
            return self.current_query()

    def current_query(self) -> DisjunctiveQuery:
        """The multipoint query induced by the current cluster list."""
        if not self.clusters:
            if self._initial_point is None:
                raise RuntimeError("engine has no state; call start() first")
            identity = np.eye(self._initial_point.shape[0])
            return DisjunctiveQuery(
                [
                    QueryPoint(
                        center=self._initial_point,
                        inverse=identity,
                        weight=1.0,
                        diagonal=np.ones(self._initial_point.shape[0]),
                    )
                ]
            )
        scheme = self.config.covariance_scheme
        query_points = []
        for cluster in self.clusters:
            info = scheme.invert(cluster.covariance)
            query_points.append(
                QueryPoint(
                    center=cluster.centroid,
                    inverse=info.inverse,
                    weight=cluster.weight,
                    diagonal=info.diagonal,
                )
            )
        return DisjunctiveQuery(query_points)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def n_clusters(self) -> int:
        """Current number of clusters ``g``."""
        return len(self.clusters)

    @property
    def total_relevance_mass(self) -> float:
        """Sum of relevance scores absorbed so far (``Σ m_i``)."""
        return sum(c.weight for c in self.clusters)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _prepare_feedback(
        self,
        relevant_points: np.ndarray,
        scores: Optional[Sequence[float]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        points = np.atleast_2d(np.asarray(relevant_points, dtype=float))
        if points.size == 0:
            return np.empty((0, 0)), np.empty(0)
        if not np.all(np.isfinite(points)):
            raise ValueError("relevant points must be finite (no NaN/inf)")
        if scores is None:
            point_scores = np.ones(points.shape[0])
        else:
            point_scores = np.asarray(scores, dtype=float)
            if point_scores.shape != (points.shape[0],):
                raise ValueError(
                    f"need one score per point: {point_scores.shape} for "
                    f"{points.shape[0]} points"
                )
            if np.any(point_scores <= 0):
                raise ValueError("relevance scores must be strictly positive")
        if not self.config.deduplicate:
            return points, point_scores
        keep = []
        for index, point in enumerate(points):
            key = point.tobytes()
            if key in self._seen:
                continue
            self._seen.add(key)
            keep.append(index)
        return points[keep], point_scores[keep]

    def _initial_clustering(self, points: np.ndarray, scores: np.ndarray) -> None:
        """Algorithm 1 step 1: cluster the first round's relevant set."""
        target = min(self.config.initial_clusters, points.shape[0])
        if self.config.initial_method == "kmeans":
            result = kmeans(points, target, rng=np.random.default_rng(0))
        else:
            result = AgglomerativeClusterer(
                n_clusters=target, linkage=self.config.initial_linkage
            ).fit(points)
        n_found = int(result.labels.max()) + 1
        self.clusters = [
            Cluster(points[result.members(label)], scores[result.members(label)])
            for label in range(n_found)
        ]

    def _adaptive_round(self, points: np.ndarray, scores: np.ndarray) -> None:
        """Algorithm 2 over one feedback round.

        ``batch_classification`` selects between the two readings of the
        paper: a fixed prior snapshot for the whole round, or statistics
        that evolve point-by-point (the default).
        """
        if self.config.batch_classification:
            self._batch_round(points, scores)
        else:
            for point, score in zip(points, scores):
                self.classifier.assign(self.clusters, point, float(score))

    def _batch_round(self, points: np.ndarray, scores: np.ndarray) -> None:
        """Classify every point against the previous iteration's priors."""
        state = self.classifier.prepare(self.clusters)
        assignments: List[Tuple[int, np.ndarray, float]] = []
        outliers: List[Tuple[np.ndarray, float]] = []
        for point, score in zip(points, scores):
            decision = self.classifier.classify(state, point)
            if decision.is_outlier:
                add_event(
                    "cluster_seeded",
                    radius_distance=decision.radius_distance,
                    radius=state.radius,
                    nearest_cluster=decision.cluster_index,
                )
                outliers.append((point, float(score)))
            else:
                assignments.append((decision.cluster_index, point, float(score)))
        for cluster_index, point, score in assignments:
            self.clusters[cluster_index].add(point, score)
        for point, score in outliers:
            self.clusters.append(Cluster(point[None, :], [score]))
