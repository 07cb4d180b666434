"""Scan and tree pages agree on collections full of exact distance ties.

Every ranking path orders rows by ``(distance, id)``: the served scan,
the tree and :func:`repro.core.progressive.exact_top_k`.  A collection
whose rows each appear three times puts ties inside every page and at
its k-th place, where a bare ``argpartition`` would pick among the tied
rows arbitrarily.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import generate_collection
from repro.index.multipoint import MultipointSearcher
from repro.index.tree import HybridTree
from repro.retrieval.database import FeatureDatabase
from repro.retrieval.methods import QclusterMethod
from repro.retrieval.session import FeedbackSession
from repro.system import ImageRetrievalSystem


@pytest.fixture(scope="module")
def tripled_database():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 4, (200, 4)).astype(float)
    labels = rng.integers(0, 4, 200)
    return FeatureDatabase(np.tile(rows, (3, 1)), np.tile(labels, 3))


def test_feedback_session_scan_page_equals_tree_page(tripled_database):
    tree = HybridTree(tripled_database.vectors)
    for query_index in (0, 7, 41):
        query = QclusterMethod().start(tripled_database.vectors[query_index])
        scan = FeedbackSession(tripled_database, QclusterMethod(), k=20)
        indexed = FeedbackSession(
            tripled_database, QclusterMethod(), k=20, searcher=MultipointSearcher(tree)
        )
        np.testing.assert_array_equal(scan.rank(query), indexed.rank(query))


def test_feedback_session_runs_agree_round_by_round(tripled_database):
    tree = HybridTree(tripled_database.vectors)
    scan = FeedbackSession(tripled_database, QclusterMethod(), k=20).run(3, n_iterations=3)
    indexed = FeedbackSession(
        tripled_database, QclusterMethod(), k=20, searcher=MultipointSearcher(tree)
    ).run(3, n_iterations=3)
    for scan_record, indexed_record in zip(scan.records, indexed.records):
        np.testing.assert_array_equal(scan_record.result_indices, indexed_record.result_indices)


def test_system_scan_page_equals_tree_page():
    collection = generate_collection(
        n_categories=4, images_per_category=15, image_size=12, seed=2
    )
    images = list(collection.images) * 3
    pages = {}
    for use_index in (False, True):
        system = ImageRetrievalSystem(images, feature="color", k=20, use_index=use_index)
        first = system.query_by_id(5)
        second = system.give_feedback(first.ids[:6].tolist())
        pages[use_index] = (first, second)
    for scan_page, tree_page in zip(pages[False], pages[True]):
        np.testing.assert_array_equal(scan_page.ids, tree_page.ids)
        np.testing.assert_array_equal(scan_page.distances, tree_page.distances)
