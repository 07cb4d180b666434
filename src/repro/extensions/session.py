"""Feedback sessions that also exploit non-relevant judgments.

Combines the pieces of :mod:`repro.extensions.negative` into a session
runner with the same recording behaviour as
:class:`~repro.retrieval.session.FeedbackSession`: after each round the
results the simulated user did *not* mark relevant are collected and
the next query is wrapped in a :class:`NegativePenaltyQuery`, so the
regions the user has implicitly rejected are demoted.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.progressive import exact_top_k
from ..retrieval.database import FeatureDatabase
from ..retrieval.methods import FeedbackMethod
from ..retrieval.metrics import precision_recall_curve
from ..retrieval.session import IterationRecord, SessionResult
from .negative import NegativePenaltyQuery, SimulatedUserWithNegatives

__all__ = ["NegativeFeedbackSession"]


class NegativeFeedbackSession:
    """Session runner that feeds negatives into a penalty re-ranker.

    Args:
        database: the collection with ground truth.
        method: any positive-feedback method (Qcluster, QPM, ...).
        k: result-list size.
        gamma: peak penalty multiplier around negatives.
        sigma: penalty kernel bandwidth; ``None`` picks the median
            pairwise distance heuristic from a database sample.
    """

    def __init__(
        self,
        database: FeatureDatabase,
        method: FeedbackMethod,
        k: int = 100,
        gamma: float = 1.0,
        sigma: Optional[float] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.database = database
        self.method = method
        self.k = min(k, database.size)
        self.gamma = gamma
        if sigma is None:
            sigma = self._median_distance_heuristic()
        self.sigma = sigma

    def _median_distance_heuristic(self) -> float:
        rng = np.random.default_rng(0)
        sample_size = min(200, self.database.size)
        sample = self.database.vectors[
            rng.choice(self.database.size, sample_size, replace=False)
        ]
        deltas = sample[:, None, :] - sample[None, :, :]
        distances = np.sqrt(np.einsum("ijk,ijk->ij", deltas, deltas))
        positive = distances[distances > 0]
        # A fraction of the median keeps the penalty local.
        return float(np.median(positive)) * 0.25 if positive.size else 1.0

    def run(
        self,
        query_index: int,
        n_iterations: int = 5,
        user: Optional[SimulatedUserWithNegatives] = None,
    ) -> SessionResult:
        """Run the session; negatives accumulate across rounds."""
        if not 0 <= query_index < self.database.size:
            raise IndexError(f"query_index {query_index} out of range")
        if user is None:
            user = SimulatedUserWithNegatives(
                self.database, self.database.category_of(query_index)
            )
        result = SessionResult()
        negatives: list = []
        query = self.method.start(self.database.vectors[query_index])
        for iteration in range(n_iterations + 1):
            if negatives:
                effective = NegativePenaltyQuery(
                    query,
                    np.vstack(negatives),
                    gamma=self.gamma,
                    sigma=self.sigma,
                )
            else:
                effective = query
            ranked = exact_top_k(effective.distances(self.database.vectors), self.k)
            mask, total_relevant = user.relevance_mask(ranked)
            judgment = user.judge(ranked)
            result.records.append(
                IterationRecord(
                    iteration=iteration,
                    precision=float(mask.mean()),
                    recall=float(mask.sum()) / total_relevant if total_relevant else 0.0,
                    curve=precision_recall_curve(mask, total_relevant),
                    n_marked=judgment.count,
                    result_indices=ranked,
                )
            )
            if iteration == n_iterations:
                break
            for index in user.non_relevant(ranked):
                negatives.append(self.database.vectors[index])
            if judgment.count > 0:
                query = self.method.feedback(
                    self.database.vectors[judgment.relevant_indices],
                    judgment.scores,
                )
        return result
