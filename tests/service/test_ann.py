"""The service's ANN tier: honest approximation end to end.

Covers the serving-stack contract around the spill tree: the exact
default stays byte-identical with the tier built, approximate pages
are stamped ``ResultQuality(approximate, estimated_recall=...)`` and
never silent, a mid-descent fault rescues through the exact scan as an
announced ``ann_fallback``, provenance is sticky only once feedback
consumed an approximate page, and a tripped degradation guard always
lands on the exact fallback scan, never on the tier.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.faults import FaultPlan, FaultSpec, activate_faults
from repro.index.tree import SpillTreeConfig
from repro.service import BatchingConfig, RetrievalService

#: Small leaves so the 120-row test database actually splits and the
#: defeatist descent is a real approximation, not a full scan.
ANN_CONFIG = SpillTreeConfig(leaf_capacity=16, max_leaves=4)

#: Shed at a queue depth of 2 (well below the backpressure bound).
SHED_CONFIG = BatchingConfig(max_batch=1, max_pending=8, shed_threshold=2)

DESCEND_OUTAGE = FaultPlan(
    specs=(FaultSpec(site="index.descend", kind="error", probability=1.0),)
)


def ann_service(database, **kwargs):
    return RetrievalService(database, k=10, ann=ANN_CONFIG, **kwargs)


class TestExactDefault:
    def test_exact_requests_are_byte_identical_with_the_tier_built(self, database):
        """Building the ANN tier must not perturb the default path."""
        with RetrievalService(database, k=10) as plain, ann_service(database) as tiered:
            for service in (plain, tiered):
                service.create_session(3, session_id="s")
            page_plain = plain.query("s")
            page_tiered = tiered.query("s")
            np.testing.assert_array_equal(page_plain.ids, page_tiered.ids)
            np.testing.assert_array_equal(page_plain.distances, page_tiered.distances)
            assert page_tiered.quality.level == "exact"

    def test_viewing_an_approximate_page_does_not_taint_the_session(self, database):
        with ann_service(database) as service:
            session = service.create_session(3)
            approximate = service.query(session, approximate=True)
            assert approximate.quality.level == "approximate"
            exact = service.query(session)
            assert exact.quality.level == "exact"

    def test_approximate_page_bypasses_the_result_cache(self, database):
        """An approximate page must never be returned to an exact
        request for the same session state, or vice versa."""
        with ann_service(database) as service:
            session = service.create_session(3)
            exact_first = service.query(session)
            approximate = service.query(session, approximate=True)
            exact_again = service.query(session)
            assert exact_again.quality.level == "exact"
            np.testing.assert_array_equal(exact_first.ids, exact_again.ids)
            assert approximate.quality.level == "approximate"


class TestApproximateServing:
    def test_page_is_stamped_with_the_calibrated_recall(self, database):
        with ann_service(database) as service:
            session = service.create_session(3)
            page = service.query(session, approximate=True)
            assert page.quality.level == "approximate"
            assert page.quality.reasons == ("ann",)
            assert page.quality.estimated_recall == service.ann_tree.calibrated_recall
            assert len(page) == 10

    def test_a_measured_zero_recall_is_stamped_as_is(self, database):
        """The stamp is the measurement: a tree that reached none of its
        probes' neighbours claims 0.0, not a made-up floor."""
        with ann_service(database) as service:
            service.ann_tree.calibrated_recall = 0.0
            session = service.create_session(3)
            page = service.query(session, approximate=True)
            assert page.quality.level == "approximate"
            assert page.quality.estimated_recall == 0.0

    def test_restored_ann_session_without_the_tier_claims_no_loss(
        self, database, tmp_path
    ):
        """A checkpointed session whose trajectory an approximate page
        shaped stays marked after a restart without the ANN tier; its
        pages are now scanned exactly, so the stamp claims recall 1.0."""
        with ann_service(database, capacity=1, checkpoint_dir=tmp_path) as service:
            service.create_session(3, session_id="s")
            page = service.query("s", approximate=True)
            service.feedback("s", [int(i) for i in page.ids[:3]], approximate=True)
            service.create_session(7, session_id="evictor")
            service.query("evictor")
            assert "s" in service.store.archived_ids
        with RetrievalService(database, k=10, checkpoint_dir=tmp_path) as restarted:
            later = restarted.query("s")
            assert later.quality.level == "approximate"
            assert later.quality.reasons == ("ann",)
            assert later.quality.estimated_recall == 1.0

    def test_requires_the_tier(self, database):
        with RetrievalService(database, k=10) as service:
            session = service.create_session(0)
            with pytest.raises(ValueError, match="ann"):
                service.query(session, approximate=True)
            with pytest.raises(ValueError, match="ann"):
                service.feedback(session, [0], approximate=True)
        # Shed batching traffic is served by the tier, so shedding
        # without one is rejected when the service is built.
        with pytest.raises(ValueError, match="ann=True"):
            RetrievalService(database, k=10, batching=SHED_CONFIG)

    def test_feedback_on_an_approximate_page_is_sticky(self, database):
        """Once feedback consumed an approximate page the trajectory
        diverged: later pages stay marked even on the exact path."""
        with ann_service(database) as service:
            session = service.create_session(3)
            page = service.query(session, approximate=True)
            relevant = [int(i) for i in page.ids[:3]]
            refined = service.feedback(session, relevant, approximate=True)
            assert refined.quality.level == "approximate"
            later = service.query(session)  # exact path, divergent state
            assert later.quality.level == "approximate"
            assert "ann" in later.quality.reasons

    def test_metrics_and_stats_surface(self, database):
        with ann_service(database) as service:
            session = service.create_session(3)
            service.query(session, approximate=True)
            snapshot = service.metrics_snapshot()
            assert snapshot["counters"]["ann_scans"] == 1
            assert snapshot["counters"]["results_approximate"] == 1
            assert snapshot["ann"]["n_leaves"] > 1
            assert snapshot["ann"]["calibrated_recall"] is not None


class TestFallback:
    def test_descend_outage_rescues_through_the_exact_scan(self, database):
        with ann_service(database) as service:
            session = service.create_session(3)
            with activate_faults(DESCEND_OUTAGE):
                page = service.query(session, approximate=True)
            assert page.quality.level == "approximate"
            assert "ann_fallback" in page.quality.reasons
            # The rescue ran the exact scan, so the *content* matches
            # the exact page and the conservative stamp claims no loss.
            assert page.quality.estimated_recall == 1.0
            exact = service.query(session)
            np.testing.assert_array_equal(page.ids, exact.ids)
            counters = service.metrics_snapshot()["counters"]
            assert counters["ann_fallbacks"] == 1


class TestPreferAnn:
    def test_without_prefer_ann_the_fallback_stays_exact(self, database):
        """A deadline-tripped session on a service with the tier built
        still takes the lossless exact fallback scan: the tier serves
        only requests that ask for it and shed batching traffic."""
        with ann_service(
            database, soft_deadline_s=1e-9, deadline_trip=1
        ) as service:
            session = service.create_session(3)
            service.query(session)
            page = service.query(session, k=9)
            assert page.quality.level == "exact"


class TestLoadShedding:
    """Past ``shed_threshold`` a batching request skips the queue and is
    served from the ANN tier; everything that queued stays exact."""

    def test_shed_pages_come_from_the_tier_and_queued_pages_stay_exact(
        self, database
    ):
        # One leader slot: the parked first batch makes later requests queue.
        with ann_service(
            database,
            use_index=False,
            cache_size=0,
            batching=SHED_CONFIG,
            max_workers=1,
        ) as service:
            executor = service.batching
            entered, gate = threading.Event(), threading.Event()
            execute = executor._execute

            def held_execute(requests):
                # The first batch parks the only leader until released.
                entered.set()
                gate.wait(10.0)
                return execute(requests)

            executor._execute = held_execute
            relevant = {f"s{i}": [3 * i, 3 * i + 1] for i in range(5)}
            for session_id, ids in relevant.items():
                service.create_session(ids[0], session_id=session_id)
            pages = {}

            def feedback(session_id):
                pages[session_id] = service.feedback(session_id, relevant[session_id])

            threads = [threading.Thread(target=feedback, args=("s0",))]
            threads[0].start()
            assert entered.wait(10.0)
            for session_id in ("s1", "s2"):
                threads.append(threading.Thread(target=feedback, args=(session_id,)))
                threads[-1].start()
            deadline = time.monotonic() + 10.0
            while executor.queue_depth < 2:
                assert time.monotonic() < deadline, "queue never filled"
                time.sleep(0.001)
            # The queue is at the threshold: these two never enqueue.
            for session_id in ("s3", "s4"):
                feedback(session_id)
            gate.set()
            for thread in threads:
                thread.join(10.0)
                assert not thread.is_alive()
            stats = executor.stats()

            shed, queued = ("s3", "s4"), ("s0", "s1", "s2")
            for session_id in shed:
                quality = pages[session_id].quality
                assert quality.level == "approximate"
                assert quality.reasons == ("ann",)
                assert quality.estimated_recall == service.ann_tree.calibrated_recall
            assert stats["shed"] == len(shed)
            assert stats["batched_queries"] == len(queued)
            for session_id in queued:
                page = pages[session_id]
                assert page.quality.level == "exact"
                with service.store.lease(session_id) as session:
                    query = session.query
                [(ids, distances, reasons)] = service.scan_batch([query], [service.k])
                assert reasons == ()
                assert page.ids.tobytes() == ids.tobytes()
                assert page.distances.tobytes() == distances.tobytes()
