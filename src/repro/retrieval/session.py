"""Feedback-session runner (paper Algorithm 1's outer loop + protocol).

One session = one initial query + ``n_iterations`` feedback rounds,
exactly the paper's protocol (Section 5: 100 random initial queries,
five feedback iterations, k = 100).  At each round the session

1. ranks the database with the current query,
2. records the precision/recall (and full P-R curve) of the top-k,
3. hands the relevant results to the feedback method,
4. swaps in the refined query.

Ranking can go through a :class:`~repro.index.multipoint.MultipointSearcher`
(cost-accounted index search) or a plain vectorized scan; quality
numbers are identical because both are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.progressive import exact_top_k
from .database import FeatureDatabase
from .methods import FeedbackMethod
from .metrics import PrecisionRecallCurve, precision_recall_curve
from .user import SimulatedUser

__all__ = ["IterationRecord", "SessionResult", "FeedbackSession"]


@dataclass(frozen=True)
class IterationRecord:
    """Quality snapshot of one retrieval round.

    Attributes:
        iteration: 0 = initial query, 1..n = feedback rounds.
        precision: precision of the full top-k result list.
        recall: recall of the full top-k result list.
        curve: P-R at every prefix of the result list.
        n_marked: how many results the user marked relevant.
        result_indices: the ranked top-k database indices.
    """

    iteration: int
    precision: float
    recall: float
    curve: PrecisionRecallCurve
    n_marked: int
    result_indices: np.ndarray


@dataclass
class SessionResult:
    """All rounds of one session, in order."""

    records: List[IterationRecord] = field(default_factory=list)

    @property
    def precisions(self) -> np.ndarray:
        """Top-k precision per iteration (Figures 12-13 series)."""
        return np.array([r.precision for r in self.records])

    @property
    def recalls(self) -> np.ndarray:
        """Top-k recall per iteration (Figures 10-11 series)."""
        return np.array([r.recall for r in self.records])

    @property
    def curves(self) -> List[PrecisionRecallCurve]:
        """One P-R curve per iteration (Figures 8-9 series)."""
        return [r.curve for r in self.records]


class FeedbackSession:
    """Drive one method through one query's feedback iterations.

    Args:
        database: the indexed collection with ground truth.
        method: the relevance-feedback strategy under test.
        k: result-list size (the paper uses 100).
        searcher: optional index searcher with a ``search(query, k)``
            method; defaults to an exact vectorized scan.
    """

    def __init__(
        self,
        database: FeatureDatabase,
        method: FeedbackMethod,
        k: int = 100,
        searcher=None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.database = database
        self.method = method
        self.k = min(k, database.size)
        self.searcher = searcher

    def rank(self, query) -> np.ndarray:
        """Ranked top-k database indices for ``query`` (exact)."""
        if self.searcher is not None:
            return self.searcher.search(query, self.k).indices
        return exact_top_k(query.distances(self.database.vectors), self.k)

    def run(
        self,
        query_index: int,
        n_iterations: int = 5,
        user: Optional[SimulatedUser] = None,
    ) -> SessionResult:
        """Run the initial query plus ``n_iterations`` feedback rounds.

        Args:
            query_index: database row used as the example image.
            n_iterations: feedback rounds after the initial query.
            user: judgment source; defaults to the category oracle for
                the query image's own category.
        """
        if not 0 <= query_index < self.database.size:
            raise IndexError(f"query_index {query_index} out of range")
        if n_iterations < 0:
            raise ValueError(f"n_iterations must be non-negative, got {n_iterations}")
        if user is None:
            user = SimulatedUser(self.database, self.database.category_of(query_index))

        result = SessionResult()
        query = self.method.start(self.database.vectors[query_index])
        for iteration in range(n_iterations + 1):
            ranked = self.rank(query)
            mask, total_relevant = user.relevance_mask(ranked)
            curve = precision_recall_curve(mask, total_relevant)
            judgment = user.judge(ranked)
            result.records.append(
                IterationRecord(
                    iteration=iteration,
                    precision=float(mask.mean()),
                    recall=float(mask.sum()) / total_relevant if total_relevant else 0.0,
                    curve=curve,
                    n_marked=judgment.count,
                    result_indices=ranked,
                )
            )
            if iteration == n_iterations:
                break
            if judgment.count > 0:
                query = self.method.feedback(
                    self.database.vectors[judgment.relevant_indices],
                    judgment.scores,
                )
        return result
