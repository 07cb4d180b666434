"""RetrievalService over a feature store: wiring, salting, degradation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distance import DisjunctiveQuery, QueryPoint
from repro.core.kernels import KernelCache, ensure_compiled
from repro.faults import FaultPlan, FaultSpec, activate_faults
from repro.obs import Tracer
from repro.service import RetrievalService
from repro.service.cache import fingerprint_query
from repro.store import FeatureStore, build_store


@pytest.fixture(scope="module")
def store_path(tmp_path_factory, database):
    path = tmp_path_factory.mktemp("store") / "svc.qcs"
    return build_store(database, path, n_shards=4)


def walk(span):
    yield span
    for child in span.get("children", ()):
        yield from walk(child)


def make_query(dim=3):
    return DisjunctiveQuery(
        [QueryPoint(center=np.zeros(dim), inverse=np.eye(dim), weight=1.0)]
    )


class TestConstruction:
    def test_processes_backend_requires_a_store(self, database):
        with pytest.raises(ValueError, match="store"):
            RetrievalService(database, scan_backend="processes")

    def test_unknown_backend_rejected(self, database):
        with pytest.raises(ValueError, match="scan_backend"):
            RetrievalService(database, scan_backend="carrier-pigeon")

    def test_n_shards_must_match_the_store_partition(self, store_path):
        store = FeatureStore.open(store_path)
        with pytest.raises(ValueError, match="re-shard"):
            RetrievalService(store, n_shards=8)

    def test_store_fixes_geometry(self, store_path):
        store = FeatureStore.open(store_path)
        with RetrievalService(store, k=5, use_index=False) as service:
            assert service.size == store.n
            assert service.n_shards == store.n_shards

    def test_store_backend_serves_sessions(self, store_path, database):
        store = FeatureStore.open(store_path)
        with RetrievalService(store, k=10, use_index=False) as service:
            session = service.create_session(0)
            page = service.query(session)
            assert page.ids[0] == 0
            relevant = database.members_of(database.category_of(0))[:5]
            refined = service.feedback(session, relevant)
            assert refined.iteration == 1
            assert refined.quality.level == "exact"


class TestMetricsSnapshot:
    def test_feature_store_section(self, store_path):
        store = FeatureStore.open(store_path)
        with RetrievalService(store, k=5, use_index=False) as service:
            session = service.create_session(store.as_array()[3])
            service.query(session)
            snapshot = service.metrics_snapshot()
        feature = snapshot["feature_store"]
        assert feature["fingerprint"] == store.fingerprint
        assert feature["block_reads"] > 0
        assert feature["n_shards"] == 4
        assert "worker_pool" not in snapshot  # threads backend: no pool

    def test_worker_pool_section(self, store_path):
        store = FeatureStore.open(store_path)
        with RetrievalService(
            store, k=5, use_index=False, scan_backend="processes", max_workers=1
        ) as service:
            session = service.create_session(store.as_array()[3])
            service.query(session)
            snapshot = service.metrics_snapshot()
        pool = snapshot["worker_pool"]
        assert pool["workers"] == 1
        assert pool["tasks_completed"] >= 4  # one task per shard
        assert pool["tasks_failed"] == 0
        assert snapshot["counters"]["store_block_reads_workers"] >= 4


class TestProcessBackendRetries:
    def test_batched_worker_retries_are_counted_and_traced(self, store_path):
        """A transient ``shard.scan`` error on the batched process backend
        is retried, counted and traced exactly as on the other backends."""
        tracer = Tracer()
        # The first attempt of every shard fails once; its retry succeeds.
        plan = FaultPlan(specs=(FaultSpec("shard.scan", "error", at=(1,)),))
        with RetrievalService(
            FeatureStore.open(store_path),
            k=10,
            use_index=False,
            scan_backend="processes",
            max_workers=1,
            batching=True,
            tracer=tracer,
            cache_size=0,
        ) as service:
            session = service.create_session(0)
            with activate_faults(plan):
                page = service.query(session)
            counters = service.metrics_snapshot()["counters"]
        assert page.quality.is_exact
        assert counters.get("shard_retries", 0) >= 1
        stages = [
            event["fields"].get("stage")
            for trace in tracer.traces()
            for span in walk(trace)
            for event in span.get("events", ())
            if event["name"] == "retry"
        ]
        assert stages and set(stages) == {"shard_scan"}


class TestCacheSalting:
    def test_result_keys_differ_across_scopes(self):
        query = make_query()
        unsalted = fingerprint_query(query, 10)
        assert fingerprint_query(query, 10) == unsalted  # deterministic
        salted_a = fingerprint_query(query, 10, scope="hash:0")
        salted_b = fingerprint_query(query, 10, scope="hash:1")
        assert len({unsalted, salted_a, salted_b}) == 3

    def test_kernel_cache_keys_differ_across_scopes(self):
        cache = KernelCache()
        events = []
        ensure_compiled(make_query(), cache=cache, on_event=events.append, scope="e0")
        # Same cluster state, same scope, fresh instance: a cache hit.
        ensure_compiled(make_query(), cache=cache, on_event=events.append, scope="e0")
        # Same cluster state, new epoch: the salted key cannot alias.
        ensure_compiled(make_query(), cache=cache, on_event=events.append, scope="e1")
        assert events == ["misses", "hits", "misses"]

    def test_epoch_bump_moves_the_service_scope(self, tmp_path, database):
        path = tmp_path / "epoch.qcs"
        build_store(database, path, n_shards=2)
        first = FeatureStore.open(path).fingerprint
        build_store(database, path, n_shards=2)  # identical bytes, epoch+1
        second = FeatureStore.open(path).fingerprint
        query = make_query()
        assert fingerprint_query(query, 10, scope=first) != fingerprint_query(
            query, 10, scope=second
        )


class TestCorruptBlockDegradation:
    def plan(self, at=(1,)):
        return FaultPlan(
            specs=(FaultSpec("store.block_read", "corrupt", key="shard/0001", at=at),)
        )

    def test_corrupt_block_degrades_instead_of_crashing(self, store_path, database):
        store = FeatureStore.open(store_path)
        probe = np.asarray(database.vectors[0], dtype=float)
        with RetrievalService(store, k=10, use_index=False) as service:
            session = service.create_session(probe)
            with activate_faults(self.plan()):
                page = service.query(session)
        assert page.quality.level == "degraded"
        assert "store_block_corrupt" in page.quality.reasons
        # Coverage shrank to the three clean shards — ids from the
        # quarantined shard's row range are absent, everything else is
        # still ranked exactly.
        lo, hi = store.row_offsets[1], store.row_offsets[2]
        assert not any(lo <= i < hi for i in page.ids)

    def test_degradation_is_sticky_but_never_fatal(self, store_path, database):
        store = FeatureStore.open(store_path)
        probe = np.asarray(database.vectors[0], dtype=float)
        with RetrievalService(store, k=10, use_index=False) as service:
            session = service.create_session(probe)
            with activate_faults(self.plan()):
                first = service.query(session)
            # The plan is long gone, but the quarantine is on the store.
            second = service.query(session, k=12)
            assert first.quality.level == "degraded"
            assert second.quality.level == "degraded"
            assert "store_block_corrupt" in second.quality.reasons
            other = service.create_session(np.asarray(database.vectors[70], dtype=float))
            assert service.query(other).quality.level == "degraded"

    def test_other_shards_unaffected_before_the_fault_fires(self, store_path, database):
        store = FeatureStore.open(store_path)
        probe = np.asarray(database.vectors[0], dtype=float)
        with RetrievalService(store, k=10, use_index=False) as service:
            session = service.create_session(probe)
            baseline = service.query(session)
            assert baseline.quality.level == "exact"
