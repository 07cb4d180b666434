"""The complete CBIR system of the paper's Figure 2, as one object.

:class:`ImageRetrievalSystem` wires every layer together — feature
extraction, the index, the Qcluster engine and session bookkeeping —
behind the interaction the paper describes:

1. build the system over an image collection (features are extracted
   and indexed once),
2. ``query_by_image`` with an example image (the parse step of
   Figure 2) to get the first result page,
3. ``give_feedback`` with the ids the user marked relevant (optionally
   scored) to get a refined result page,
4. repeat 3 until satisfied.

Any :class:`~repro.retrieval.methods.FeedbackMethod` can be plugged in,
so the same system object also runs the baselines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core.progressive import exact_top_k
from .features.image import Image
from .features.pipeline import FeaturePipeline, color_pipeline, texture_pipeline
from .index.multipoint import MultipointSearcher
from .index.tree import HybridTree
from .retrieval.methods import FeedbackMethod, QclusterMethod

__all__ = ["ResultQuality", "EXACT_QUALITY", "ResultPage", "ImageRetrievalSystem"]


@dataclass(frozen=True)
class ResultQuality:
    """Provenance of a result page: exact, approximate, or degraded — and *why*.

    Every response carries one of these.  ``exact`` is a guarantee:
    the page is byte-identical to what a fault-free computation over
    the session's state would produce (recovery — retries,
    fallback scans — may have happened, but it succeeded completely).
    ``approximate`` means the page was deliberately served by the
    cheap row-budgeted ANN tier (or the session's feedback trajectory
    has been shaped by such a page): the ranking is exact *over the
    rows the tier scored*, and ``estimated_recall`` states the tier's
    calibrated recall — its *mean* over the tree's build-time
    self-probes, not a bound on this page (a hard query can fall
    below it).  Approximation is an announced trade, never a silent
    one.
    ``degraded`` means coverage or state was *lost* and names the causes:

    * ``"shard_failed"`` — one or more shards were dropped after their
      retry budget; the page may miss rows from those shards.
    * ``"deadline"`` — the request's recovery budget expired before
      full coverage could be restored.
    * ``"checkpoint_rebuilt"`` — the session was rebuilt from its
      genesis query after checkpoint corruption; accumulated feedback
      was lost.

    Approximate pages carry their own reason tags:

    * ``"ann"`` — the page was ranked by the hybrid tree's approximate
      search over the rows of the lowest-bound leaves, up to the tree's
      calibrated row budget.
    * ``"ann_fallback"`` — the ANN tier itself failed mid-search and
      the request was re-served by the *exact* scan; the page content
      is exact, but it is stamped approximate (a conservative claim is
      never a lie) so the caller sees the tier misbehaving.

    Degradation and approximation are sticky per session: once a
    session's feedback trajectory was influenced by such a page, later
    pages remain marked (their ranking is exact over *divergent* state).

    Attributes:
        level: ``"exact"``, ``"approximate"`` or ``"degraded"``.
        reasons: sorted, de-duplicated causes (empty iff exact).
        estimated_recall: the tier's calibrated mean recall in
            ``[0, 1]`` (not a per-page bound); required for
            ``approximate``, absent otherwise.
    """

    level: str = "exact"
    reasons: Tuple[str, ...] = ()
    estimated_recall: Optional[float] = None

    def __post_init__(self) -> None:
        if self.level not in ("exact", "approximate", "degraded"):
            raise ValueError(
                f"level must be 'exact', 'approximate' or 'degraded', got {self.level!r}"
            )
        object.__setattr__(self, "reasons", tuple(sorted(set(self.reasons))))
        if self.level == "exact" and self.reasons:
            raise ValueError(f"exact quality cannot carry reasons, got {self.reasons}")
        if self.level in ("approximate", "degraded") and not self.reasons:
            raise ValueError(f"{self.level} quality needs at least one reason")
        if self.level == "approximate":
            if self.estimated_recall is None:
                raise ValueError("approximate quality needs an estimated_recall")
            if not 0.0 <= self.estimated_recall <= 1.0:
                raise ValueError(
                    f"estimated_recall must be in [0, 1], got {self.estimated_recall}"
                )
        elif self.estimated_recall is not None:
            raise ValueError(
                f"{self.level} quality cannot carry an estimated_recall"
            )

    @property
    def is_exact(self) -> bool:
        """Whether the page is guaranteed byte-identical to fault-free."""
        return self.level == "exact"

    @property
    def is_approximate(self) -> bool:
        """Whether the page was (or follows) an announced ANN-tier serve."""
        return self.level == "approximate"

    @classmethod
    def degraded(cls, *reasons: str) -> "ResultQuality":
        """A degraded quality tagged with one or more causes."""
        return cls(level="degraded", reasons=tuple(reasons))

    @classmethod
    def approximate(cls, estimated_recall: float, *reasons: str) -> "ResultQuality":
        """An approximate quality with its recall estimate and causes."""
        return cls(
            level="approximate",
            reasons=tuple(reasons) or ("ann",),
            estimated_recall=float(estimated_recall),
        )

    def to_dict(self) -> dict:
        """JSON-compatible form for logs and API responses."""
        payload = {"level": self.level, "reasons": list(self.reasons)}
        if self.estimated_recall is not None:
            payload["estimated_recall"] = self.estimated_recall
        return payload


#: The shared "nothing was lost" singleton (the default on every page).
EXACT_QUALITY = ResultQuality()


@dataclass(frozen=True)
class ResultPage:
    """One page of ranked results.

    Attributes:
        ids: database image ids, best first.
        distances: aggregate distances, aligned with ``ids``.
        iteration: 0 for the initial query, then 1, 2, ...
        quality: exactness provenance (:data:`EXACT_QUALITY` unless the
            serving layer explicitly degraded this response).
    """

    ids: np.ndarray
    distances: np.ndarray
    iteration: int
    quality: ResultQuality = EXACT_QUALITY

    def __len__(self) -> int:
        return self.ids.shape[0]


@dataclass
class _Session:
    """Mutable per-query state."""

    method: FeedbackMethod
    query: object
    iteration: int = 0
    seen_relevant: set = field(default_factory=set)


class ImageRetrievalSystem:
    """Content-based image retrieval with relevance feedback.

    Args:
        images: the collection to index.
        feature: ``"color"`` (HSV moments → 3-d), ``"texture"``
            (GLCM → 4-d) or a ready :class:`FeaturePipeline`.
        method_factory: feedback strategy per session (default Qcluster).
        k: result-page size.
        use_index: route ranking through the cached multipoint tree
            search; ``False`` uses an exact vectorized scan (identical
            results, often faster for small collections).
    """

    def __init__(
        self,
        images: Sequence[Image],
        feature: object = "color",
        method_factory: Callable[[], FeedbackMethod] = QclusterMethod,
        k: int = 20,
        use_index: bool = True,
    ) -> None:
        if not images:
            raise ValueError("cannot build a retrieval system over zero images")
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if isinstance(feature, FeaturePipeline):
            self.pipeline = feature
        elif feature == "color":
            self.pipeline = color_pipeline()
        elif feature == "texture":
            self.pipeline = texture_pipeline()
        else:
            raise ValueError(
                f"feature must be 'color', 'texture' or a FeaturePipeline, got {feature!r}"
            )
        self.images = list(images)
        self.vectors = self.pipeline.fit(self.images)
        self.k = min(k, len(self.images))
        self.method_factory = method_factory
        self._tree = HybridTree(self.vectors) if use_index else None
        self._searcher: Optional[MultipointSearcher] = None
        self._session: Optional[_Session] = None

    # ------------------------------------------------------------------

    @property
    def size(self) -> int:
        """Number of indexed images."""
        return len(self.images)

    @property
    def iteration(self) -> int:
        """Feedback iterations completed in the active session."""
        if self._session is None:
            raise RuntimeError("no active session; call query_by_image first")
        return self._session.iteration

    def _rank(self, query) -> ResultPage:
        assert self._session is not None
        if self._searcher is not None:
            result = self._searcher.search(query, self.k)
            ids, distances = result.indices, result.distances
        else:
            all_distances = query.distances(self.vectors)
            ids = exact_top_k(all_distances, self.k)
            distances = all_distances[ids]
        return ResultPage(ids=ids, distances=distances, iteration=self._session.iteration)

    # ------------------------------------------------------------------
    # The Figure 2 loop
    # ------------------------------------------------------------------

    def query_by_image(self, example: Image) -> ResultPage:
        """Start a session from an example image (query parsing step)."""
        feature_vector = self.pipeline.transform_one(example)
        method = self.method_factory()
        query = method.start(feature_vector)
        if self._tree is not None:
            self._searcher = MultipointSearcher(self._tree)
        self._session = _Session(method=method, query=query)
        return self._rank(query)

    def query_by_id(self, image_id: int) -> ResultPage:
        """Start a session from an image already in the collection."""
        if not 0 <= image_id < self.size:
            raise IndexError(f"image id {image_id} out of range")
        method = self.method_factory()
        query = method.start(self.vectors[image_id])
        if self._tree is not None:
            self._searcher = MultipointSearcher(self._tree)
        self._session = _Session(method=method, query=query)
        return self._rank(query)

    def give_feedback(
        self,
        relevant_ids: Sequence[int],
        scores: Optional[Sequence[float]] = None,
    ) -> ResultPage:
        """Refine the active session's query with the user's judgments."""
        if self._session is None:
            raise RuntimeError("no active session; call query_by_image first")
        ids: List[int] = [int(i) for i in relevant_ids]
        for image_id in ids:
            if not 0 <= image_id < self.size:
                raise IndexError(f"image id {image_id} out of range")
            self._session.seen_relevant.add(image_id)
        if ids:
            self._session.query = self._session.method.feedback(
                self.vectors[ids], scores
            )
        self._session.iteration += 1
        return self._rank(self._session.query)

    def end_session(self) -> None:
        """Drop session state (the index itself stays warm)."""
        self._session = None
        self._searcher = None
