"""FeedbackSession: the paper's evaluation loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.index.tree import HybridTree
from repro.index.multipoint import MultipointSearcher
from repro.retrieval.database import FeatureDatabase
from repro.retrieval.methods import QclusterMethod
from repro.retrieval.session import FeedbackSession
from repro.retrieval.user import SimulatedUser


@pytest.fixture
def blob_database(rng):
    """Three categories, one of them bimodal (a complex query).

    Category 0 is bimodal (modes at x = ±4); category 1 is broad clutter
    overlapping the region between the modes, so the initial spherical
    query confuses clutter with the second mode; category 2 is far away.
    With a large enough k a few second-mode images leak into the result
    list and feedback can discover and exploit them.
    """
    cat0_a = rng.normal(0.0, 0.5, (30, 3)) + np.array([-4.0, 0.0, 0.0])
    cat0_b = rng.normal(0.0, 0.5, (30, 3)) + np.array([4.0, 0.0, 0.0])
    cat1 = rng.normal(0.0, 3.0, (60, 3))
    cat2 = rng.normal(0.0, 0.5, (60, 3)) + np.array([0.0, 12.0, 0.0])
    vectors = np.vstack([cat0_a, cat0_b, cat1, cat2])
    labels = [0] * 60 + [1] * 60 + [2] * 60
    return FeatureDatabase(vectors, labels)


class TestFeedbackSession:
    def test_record_count_and_iterations(self, blob_database):
        session = FeedbackSession(blob_database, QclusterMethod(), k=40)
        result = session.run(0, n_iterations=3)
        assert len(result.records) == 4
        assert [r.iteration for r in result.records] == [0, 1, 2, 3]

    def test_quality_improves_with_feedback(self, blob_database):
        session = FeedbackSession(blob_database, QclusterMethod(), k=80)
        result = session.run(0, n_iterations=4)
        # Category 0 is bimodal: the initial Euclidean query sees mostly
        # one mode plus clutter; feedback must lift recall substantially.
        assert result.recalls[-1] > result.recalls[0] + 0.2

    def test_result_indices_are_ranked_topk(self, blob_database):
        session = FeedbackSession(blob_database, QclusterMethod(), k=25)
        result = session.run(5, n_iterations=1)
        assert result.records[0].result_indices.shape == (25,)

    def test_custom_user(self, blob_database):
        user = SimulatedUser(blob_database, target_category=1)
        session = FeedbackSession(blob_database, QclusterMethod(), k=30)
        result = session.run(0, n_iterations=2, user=user)
        assert len(result.records) == 3

    def test_index_searcher_gives_same_quality(self, blob_database):
        direct = FeedbackSession(blob_database, QclusterMethod(), k=30)
        direct_result = direct.run(0, n_iterations=2)
        tree = HybridTree(blob_database.vectors, leaf_capacity=16)
        indexed = FeedbackSession(
            blob_database, QclusterMethod(), k=30, searcher=MultipointSearcher(tree)
        )
        indexed_result = indexed.run(0, n_iterations=2)
        np.testing.assert_allclose(direct_result.recalls, indexed_result.recalls)

    def test_zero_iterations(self, blob_database):
        session = FeedbackSession(blob_database, QclusterMethod(), k=10)
        result = session.run(0, n_iterations=0)
        assert len(result.records) == 1

    def test_validation(self, blob_database):
        with pytest.raises(ValueError):
            FeedbackSession(blob_database, QclusterMethod(), k=0)
        session = FeedbackSession(blob_database, QclusterMethod(), k=10)
        with pytest.raises(IndexError):
            session.run(10_000)
        with pytest.raises(ValueError):
            session.run(0, n_iterations=-1)

    def test_k_clamped_to_database(self, blob_database):
        session = FeedbackSession(blob_database, QclusterMethod(), k=10_000)
        assert session.k == blob_database.size
