"""SessionStore: leasing, eviction, checkpoints, TTL, restarts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines import QueryPointMovement
from repro.retrieval import QclusterMethod
from repro.service import ManagedSession, ServiceMetrics, SessionNotFound, SessionStore


class FakeClock:
    """Deterministic monotonic clock for TTL tests."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_session(session_id: str, rounds: int = 1, seed: int = 0) -> ManagedSession:
    """A Qcluster-backed session with some real cluster state."""
    rng = np.random.default_rng(seed)
    method = QclusterMethod()
    query = method.start(rng.standard_normal(3))
    for _ in range(rounds):
        query = method.feedback(rng.standard_normal((8, 3)))
    return ManagedSession(session_id=session_id, method=method, query=query,
                          iteration=rounds)


class TestBasics:
    def test_put_and_lease(self):
        store = SessionStore(capacity=4)
        store.put(make_session("a"))
        with store.lease("a") as session:
            assert session.session_id == "a"
        assert len(store) == 1
        assert "a" in store

    def test_unknown_id_raises(self):
        store = SessionStore(capacity=4)
        with pytest.raises(SessionNotFound):
            with store.lease("missing"):
                pass

    def test_remove_is_terminal(self):
        store = SessionStore(capacity=4)
        store.put(make_session("a"))
        assert store.remove("a") is True
        assert store.remove("a") is False
        with pytest.raises(SessionNotFound):
            with store.lease("a"):
                pass

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            SessionStore(capacity=0)
        with pytest.raises(ValueError):
            SessionStore(ttl_seconds=0.0)


class TestCapacityEviction:
    def test_lru_session_is_evicted_first(self):
        clock = FakeClock()
        store = SessionStore(capacity=2, clock=clock)
        for session_id in ("a", "b"):
            store.put(make_session(session_id))
            clock.advance(1.0)
        with store.lease("a"):
            pass  # refresh a; b is now least recently used
        clock.advance(1.0)
        store.put(make_session("c"))
        assert set(store.live_ids) == {"a", "c"}
        assert store.archived_ids == ["b"]

    def test_evicted_session_restores_transparently(self):
        metrics = ServiceMetrics()
        store = SessionStore(capacity=1, metrics=metrics)
        original = make_session("a", rounds=2)
        engine_before = original.method.engine
        store.put(original)
        store.put(make_session("b"))  # evicts a
        with store.lease("a") as restored:  # evicts b, restores a
            assert restored is not original
            engine_after = restored.method.engine
            assert engine_after.n_clusters == engine_before.n_clusters
            for before, after in zip(engine_before.clusters, engine_after.clusters):
                np.testing.assert_array_equal(before.centroid, after.centroid)
                np.testing.assert_array_equal(before.covariance, after.covariance)
                assert before.weight == after.weight
            assert restored.iteration == original.iteration
        assert metrics.counter("sessions_evicted") == 2
        assert metrics.counter("sessions_restored") == 1

    def test_pinned_sessions_are_never_evicted(self):
        store = SessionStore(capacity=1)
        store.put(make_session("a"))
        with store.lease("a"):
            # a is pinned, so the overflow falls on the only unpinned
            # session — the just-inserted b — never on a.
            store.put(make_session("b"))
            assert store.live_ids == ["a"]
            assert store.archived_ids == ["b"]

    def test_unpersistable_session_is_lost_with_metric(self):
        metrics = ServiceMetrics()
        store = SessionStore(capacity=1, metrics=metrics)
        method = QueryPointMovement()
        query = method.start(np.zeros(3))
        store.put(ManagedSession(session_id="qpm", method=method, query=query))
        store.put(make_session("b"))
        assert metrics.counter("sessions_lost") == 1
        with pytest.raises(SessionNotFound):
            with store.lease("qpm"):
                pass


class TestTTL:
    def test_idle_sessions_expire(self):
        clock = FakeClock()
        store = SessionStore(capacity=8, ttl_seconds=10.0, clock=clock)
        store.put(make_session("a"))
        clock.advance(11.0)
        assert store.sweep() == 1
        assert store.live_ids == []
        assert store.archived_ids == ["a"]

    def test_active_sessions_survive_the_sweep(self):
        clock = FakeClock()
        store = SessionStore(capacity=8, ttl_seconds=10.0, clock=clock)
        store.put(make_session("a"))
        clock.advance(9.0)
        with store.lease("a"):
            pass  # touch
        clock.advance(9.0)
        assert store.sweep() == 0

    def test_expired_session_restores_on_next_lease(self):
        clock = FakeClock()
        store = SessionStore(capacity=8, ttl_seconds=10.0, clock=clock)
        store.put(make_session("a", rounds=1))
        clock.advance(11.0)
        with store.lease("a") as session:
            assert session.method.engine.n_clusters >= 1


class TestDiskCheckpoints:
    def test_checkpoint_survives_process_restart(self, tmp_path):
        first = SessionStore(capacity=1, checkpoint_dir=tmp_path)
        original = make_session("a", rounds=2)
        reference = original.method.engine
        first.put(original)
        first.put(make_session("b"))  # writes a's checkpoint file
        assert (tmp_path / "a.json").exists()

        second = SessionStore(capacity=4, checkpoint_dir=tmp_path)  # "new process"
        assert "a" in second
        with second.lease("a") as restored:
            engine = restored.method.engine
            assert engine.n_clusters == reference.n_clusters
            for before, after in zip(reference.clusters, engine.clusters):
                np.testing.assert_array_equal(before.centroid, after.centroid)
                np.testing.assert_array_equal(before.covariance, after.covariance)
                assert before.weight == after.weight
        assert not (tmp_path / "a.json").exists()  # consumed on restore

    def test_remove_deletes_the_checkpoint_file(self, tmp_path):
        store = SessionStore(capacity=1, checkpoint_dir=tmp_path)
        store.put(make_session("a"))
        store.put(make_session("b"))
        assert (tmp_path / "a.json").exists()
        assert store.remove("a") is True
        assert not (tmp_path / "a.json").exists()


class TestCheckpointPathsStayInside:
    """A caller-chosen id names its checkpoint file, so only a plain
    file-name component may become a session id."""

    NOT_PLAIN = ["../escaped", "a/b", "/abs", "a\\b", "nul\0id", "..", ".", ""]

    @pytest.mark.parametrize("session_id", NOT_PLAIN)
    def test_create_session_rejects_an_id_that_is_not_a_plain_name(
        self, database, tmp_path, session_id
    ):
        from repro.service import RetrievalService

        with RetrievalService(
            database, k=5, capacity=1, checkpoint_dir=tmp_path / "ckpt"
        ) as service:
            with pytest.raises(ValueError, match="plain name"):
                service.create_session(3, session_id=session_id)
            service.create_session(4)
            service.create_session(5)  # evicts the first into ckpt/
        assert sorted(path.name for path in tmp_path.iterdir()) == ["ckpt"]

    def test_a_lease_of_such_an_id_never_reaches_the_file_system(
        self, tmp_path, monkeypatch
    ):
        # A genuine checkpoint where "../escaped" would resolve.
        outside = SessionStore(capacity=1, checkpoint_dir=tmp_path)
        outside.put(make_session("escaped"))
        outside.put(make_session("other"))
        assert (tmp_path / "escaped.json").exists()
        metrics = ServiceMetrics()
        store = SessionStore(capacity=1, checkpoint_dir=tmp_path / "ckpt", metrics=metrics)

        touched = []
        exists = type(tmp_path).exists

        def recording_exists(path):
            touched.append(path)
            return exists(path)

        monkeypatch.setattr(type(tmp_path), "exists", recording_exists)
        for session_id in self.NOT_PLAIN:
            with pytest.raises(SessionNotFound):
                with store.lease(session_id):
                    pass
            assert session_id not in store
            assert store.remove(session_id) is False
        monkeypatch.undo()
        assert touched == []
        assert (tmp_path / "escaped.json").exists()
        assert metrics.snapshot()["counters"].get("sessions_restored", 0) == 0

    def test_put_rejects_an_id_that_is_not_a_plain_name(self):
        store = SessionStore(capacity=2)
        with pytest.raises(ValueError):
            store.put(make_session("../escaped"))
        assert len(store) == 0
