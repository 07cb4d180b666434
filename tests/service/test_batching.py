"""Unit tests of the batching executor's flow control.

`repro.service.batching.BatchingExecutor` is pure coordination — the
scan itself is an injected callable — so these tests drive it with stub
``execute``/``fallback`` functions and assert the leader/follower
dispatch, coalescing, fairness, backpressure, shedding and recovery
contracts directly.  Requests are submitted from helper threads because
``submit`` blocks until the micro-batch serves it.  Tests that need
followers to queue up park the one leader (``leaders=1``) inside a
gated first batch.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as hst

from repro.core.kernels import compile_query
from repro.obs import TailSamplingPolicy, Tracer
from repro.service.batching import (
    BatchingConfig,
    BatchingExecutor,
    compatibility_key,
)

KEY_A = ("scope-a", 8, ("CholeskyKernel",))
KEY_B = ("scope-b", 8, ("CholeskyKernel",))


class Submitter:
    """Runs one blocking ``submit`` on its own thread."""

    def __init__(self, executor, payload, key=KEY_A, *, tenant="default", budget=None):
        self.result = None
        self.error = None

        def run():
            try:
                self.result = executor.submit(
                    payload, key, 10, tenant=tenant, budget=budget
                )
            except BaseException as error:  # re-raised by join()
                self.error = error

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()

    def join(self, timeout=10.0):
        self.thread.join(timeout)
        assert not self.thread.is_alive(), "submit never returned"
        if self.error is not None:
            raise self.error
        return self.result


def wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never became true"
        time.sleep(0.001)


class RecordingExecute:
    """Stub batch scan: echoes payloads, records batch compositions."""

    def __init__(self, gate=None, fail_with=None):
        self.batches = []
        self.gate = gate  # threading.Event the first batch blocks on
        self.fail_with = fail_with
        self._first = True

    def __call__(self, batch):
        self.batches.append([(r.payload, r.tenant) for r in batch])
        if self.gate is not None and self._first:
            self._first = False
            self.gate.wait(10.0)
        if self.fail_with is not None:
            raise self.fail_with
        return [("served", request.payload) for request in batch]


class TestConfigValidation:
    def test_rejects_zero_batch(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchingConfig(max_batch=0)

    def test_rejects_zero_pending(self):
        with pytest.raises(ValueError, match="max_pending"):
            BatchingConfig(max_pending=0)

    def test_rejects_zero_shed_threshold(self):
        with pytest.raises(ValueError, match="shed_threshold"):
            BatchingConfig(shed_threshold=0)

    @pytest.mark.parametrize("threshold", [16, 17])
    def test_rejects_shed_threshold_at_or_past_max_pending(self, threshold):
        """Submitters block at ``max_pending``, so the queue never gets
        deeper: a threshold there or beyond could never shed."""
        with pytest.raises(ValueError, match="max_pending"):
            BatchingConfig(max_pending=16, shed_threshold=threshold)

    def test_rejects_zero_leaders(self):
        with pytest.raises(ValueError, match="leaders"):
            BatchingExecutor(RecordingExecute(), leaders=0)

    def test_shed_threshold_needs_a_shed_target(self):
        config = BatchingConfig(max_pending=16, shed_threshold=2)
        with pytest.raises(ValueError, match="ann=True"):
            BatchingExecutor(RecordingExecute(), config=config)

    def test_defaults_are_valid(self):
        config = BatchingConfig()
        assert config.max_batch == 32
        assert config.shed_threshold is None


class TestCompatibilityKey:
    def test_same_shape_queries_share_a_key(self):
        from tests.core.test_kernels import random_query

        rng = np.random.default_rng(3)
        a = compile_query(random_query(rng, "inverse", g=2, p=6))
        b = compile_query(random_query(rng, "inverse", g=2, p=6))
        assert compatibility_key(a, "fp") == compatibility_key(b, "fp")

    def test_scheme_shape_separates_keys(self):
        from tests.core.test_kernels import random_query

        rng = np.random.default_rng(4)
        full = compile_query(random_query(rng, "inverse", g=2, p=6))
        diag = compile_query(random_query(rng, "diagonal", g=2, p=6))
        assert compatibility_key(full, "fp") != compatibility_key(diag, "fp")

    def test_scope_separates_keys(self):
        from tests.core.test_kernels import random_query

        rng = np.random.default_rng(5)
        compiled = compile_query(random_query(rng, "inverse", g=1, p=6))
        assert compatibility_key(compiled, "epoch-1") != compatibility_key(
            compiled, "epoch-2"
        )


class TestCoalescing:
    def test_single_submit_is_served(self):
        execute = RecordingExecute()
        with BatchingExecutor(execute) as executor:
            assert executor.submit("q0", KEY_A, 10) == ("served", "q0")
        assert execute.batches == [[("q0", "default")]]

    def test_lone_submit_runs_on_the_submitting_thread(self):
        """No dispatcher hand-off: an idle executor scans a lone request
        on the thread that submitted it, and owns no thread at all."""
        threads = []

        def execute(batch):
            threads.append(threading.current_thread())
            return [request.payload for request in batch]

        with BatchingExecutor(execute) as executor:
            assert not any(
                thread.name == "repro-batcher" for thread in threading.enumerate()
            )
            assert executor.submit("q", KEY_A, 10) == "q"
        assert threads == [threading.current_thread()]

    def test_full_batch_dispatches_together(self):
        """Requests that queue behind a busy leader ride one batch, and
        every member gets its own positional result."""
        gate = threading.Event()
        execute = RecordingExecute(gate=gate)
        config = BatchingConfig(max_batch=4)
        with BatchingExecutor(execute, config=config, leaders=1) as executor:
            first = Submitter(executor, "seed")
            wait_for(lambda: len(execute.batches) == 1)
            submitters = [Submitter(executor, f"q{i}") for i in range(4)]
            wait_for(lambda: executor.queue_depth == 4)
            gate.set()
            first.join()
            results = {s.join() for s in submitters}
        assert results == {("served", f"q{i}") for i in range(4)}
        assert len(execute.batches) == 2
        assert len(execute.batches[1]) == 4

    def test_incompatible_keys_never_share_a_batch(self):
        gate = threading.Event()
        execute = RecordingExecute(gate=gate)
        config = BatchingConfig(max_batch=8)
        with BatchingExecutor(execute, config=config, leaders=1) as executor:
            # Park the leader inside batch #1, then queue a mix.
            first = Submitter(executor, "seed")
            wait_for(lambda: len(execute.batches) == 1)
            mixed = [
                Submitter(executor, "a0", KEY_A),
                Submitter(executor, "b0", KEY_B),
                Submitter(executor, "a1", KEY_A),
                Submitter(executor, "b1", KEY_B),
            ]
            wait_for(lambda: executor.queue_depth == 4)
            gate.set()
            first.join()
            for submitter in mixed:
                submitter.join()
        served = sorted(p for batch in execute.batches for p, _ in batch)
        assert served == ["a0", "a1", "b0", "b1", "seed"]
        # No batch mixes an "a" payload with a "b" payload.
        for batch in execute.batches:
            initials = {payload[0] for payload, _ in batch}
            assert not ({"a", "b"} <= initials)

    def test_stats_shape(self):
        execute = RecordingExecute()
        with BatchingExecutor(execute) as executor:
            executor.submit("q", KEY_A, 10, tenant="t0")
            stats = executor.stats()
        assert stats["submitted"] == 1
        assert stats["batches"] == 1
        assert stats["batched_queries"] == 1
        assert stats["queue_depth"] == 0
        assert stats["peak_queue_depth"] >= 1
        assert stats["shed"] == 0
        assert stats["fallbacks"] == 0
        assert stats["mean_batch_size"] == 1.0
        assert stats["p50_batch_size"] == 1.0
        assert stats["max_batch_size"] == 1.0
        assert stats["tenants_served"] == {"t0": 1}


class TestQueueWaitAccounting:
    def test_queue_wait_tracked_per_tenant(self):
        """A request parked behind a busy batch accrues measurable queue
        wait, attributed to its own tenant — and the wait ends when its
        batch is collected, so its own 50 ms scan is not counted."""
        gate = threading.Event()
        batches = []

        def execute(batch):
            batches.append(batch)
            if len(batches) == 1:
                gate.wait(10.0)
            else:
                time.sleep(0.05)
            return [request.payload for request in batch]

        config = BatchingConfig(max_batch=2)
        with BatchingExecutor(execute, config=config, leaders=1) as executor:
            first = Submitter(executor, "seed", tenant="fast")
            wait_for(lambda: len(batches) == 1)
            start = time.monotonic()
            parked = Submitter(executor, "q1", tenant="slow-co")
            wait_for(lambda: executor.queue_depth == 1)
            time.sleep(0.02)  # let the parked request accrue wait
            gate.set()
            first.join()
            parked.join()
            elapsed = time.monotonic() - start
            stats = executor.stats()
        waits = stats["queue_wait_by_tenant"]
        assert set(waits) == {"fast", "slow-co"}
        slow = waits["slow-co"]
        assert slow["count"] == 1
        assert slow["sum"] >= 0.02
        assert slow["p50"] >= 0.02
        assert slow["p95"] >= slow["p50"] >= 0.0
        assert slow["sum"] <= elapsed - 0.05
        assert waits["fast"]["count"] == 1

    def test_queue_wait_reaches_prometheus(self):
        from repro.obs import prometheus_text

        execute = RecordingExecute()
        with BatchingExecutor(execute) as executor:
            executor.submit("q", KEY_A, 10, tenant="acme")
            stats = executor.stats()
        text = prometheus_text({"batching": stats})
        assert 'repro_batch_queue_wait_seconds_count{tenant="acme"} 1' in text
        assert 'repro_batch_queue_wait_seconds_bucket{le="+Inf",tenant="acme"} 1' in text


class TestTenantFairness:
    def test_round_robin_across_tenants(self):
        """With a flooding tenant and a light one queued together, the
        collected batch interleaves both — the light tenant is not
        starved behind the flood."""
        gate = threading.Event()
        execute = RecordingExecute(gate=gate)
        config = BatchingConfig(max_batch=4)
        with BatchingExecutor(execute, config=config, leaders=1) as executor:
            first = Submitter(executor, "seed", tenant="warm")
            wait_for(lambda: len(execute.batches) == 1)
            flood = [
                Submitter(executor, f"f{i}", tenant="flood") for i in range(6)
            ]
            wait_for(lambda: executor.queue_depth == 6)
            light = [
                Submitter(executor, f"l{i}", tenant="light") for i in range(2)
            ]
            wait_for(lambda: executor.queue_depth == 8)
            gate.set()
            first.join()
            for submitter in flood + light:
                submitter.join()
        # Batch #2 (first after the seed) must contain both tenants.
        second = execute.batches[1]
        assert len(second) == 4
        tenants = [tenant for _, tenant in second]
        assert "light" in tenants and "flood" in tenants
        stats = executor.stats()
        assert stats["tenants_served"] == {"flood": 6, "light": 2, "warm": 1}

    def test_within_tenant_fifo_order_is_preserved(self):
        gate = threading.Event()
        execute = RecordingExecute(gate=gate)
        config = BatchingConfig(max_batch=8)
        with BatchingExecutor(execute, config=config, leaders=1) as executor:
            first = Submitter(executor, "seed")
            wait_for(lambda: len(execute.batches) == 1)
            ordered = []
            for i in range(4):
                ordered.append(Submitter(executor, f"q{i}", tenant="t"))
                wait_for(lambda: executor.queue_depth == i + 1)
            gate.set()
            first.join()
            for submitter in ordered:
                submitter.join()
        tenant_order = [
            payload
            for batch in execute.batches
            for payload, tenant in batch
            if tenant == "t"
        ]
        assert tenant_order == ["q0", "q1", "q2", "q3"]


class TestBackpressure:
    def test_submit_blocks_at_max_pending(self):
        gate = threading.Event()
        execute = RecordingExecute(gate=gate)
        config = BatchingConfig(max_batch=1, max_pending=2)
        with BatchingExecutor(execute, config=config, leaders=1) as executor:
            # Batch #1 (the seed) parks the leader; two more fill
            # the queue to max_pending.
            first = Submitter(executor, "seed")
            wait_for(lambda: len(execute.batches) == 1)
            queued = [Submitter(executor, f"q{i}") for i in range(2)]
            wait_for(lambda: executor.queue_depth == 2)
            # The next submitter must block at admission...
            blocked = Submitter(executor, "over")
            time.sleep(0.05)
            assert blocked.thread.is_alive()
            assert executor.queue_depth == 2
            # ...and proceed once the queue drains.
            gate.set()
            first.join()
            for submitter in queued:
                submitter.join()
            assert blocked.join() == ("served", "over")

    def test_shed_to_serves_inline_off_the_queue(self):
        """With a shed target, shed requests never ride a micro-batch:
        they are served on the submitter's own thread by ``shed_to``."""
        gate = threading.Event()
        execute = RecordingExecute(gate=gate)
        shed_served = []

        def shed_to(request):
            shed_served.append(request.payload)
            return ("ann", request.payload)

        config = BatchingConfig(max_batch=8, max_pending=16, shed_threshold=2)
        with BatchingExecutor(
            execute, shed_to=shed_to, config=config, leaders=1
        ) as executor:
            first = Submitter(executor, "seed")
            wait_for(lambda: len(execute.batches) == 1)
            queued = [Submitter(executor, "q0"), Submitter(executor, "q1")]
            wait_for(lambda: executor.queue_depth == 2)
            # The third arrival crosses the threshold and must return
            # immediately via shed_to, while the batch is still gated.
            shed = Submitter(executor, "q2")
            assert shed.join() == ("ann", "q2")
            gate.set()
            first.join()
            for submitter, payload in zip(queued, ("q0", "q1")):
                assert submitter.join() == ("served", payload)
        assert shed_served == ["q2"]
        assert executor.stats()["shed"] == 1
        # Shed payloads never reached the batch path.
        batched = {p for batch in execute.batches for p, _ in batch}
        assert "q2" not in batched

    def test_shed_request_leaves_a_batch_shed_event(self):
        """A shed page is approximate: its trace records why, and the
        tail sampler keeps it for that reason alone."""
        gate = threading.Event()
        execute = RecordingExecute(gate=gate)
        tracer = Tracer(tail_sampling=TailSamplingPolicy(keep_probability=0.0))
        config = BatchingConfig(max_batch=8, max_pending=16, shed_threshold=1)
        executor = BatchingExecutor(
            execute, shed_to=lambda request: "ann", config=config, leaders=1
        )
        with executor:
            first = Submitter(executor, "seed")
            wait_for(lambda: len(execute.batches) == 1)
            queued = Submitter(executor, "q0")
            wait_for(lambda: executor.queue_depth == 1)
            with tracer.span("feedback"):
                assert executor.submit("q1", KEY_A, 10) == "ann"
            gate.set()
            first.join()
            queued.join()
        (trace,) = tracer.traces()
        events = [event for event in trace["events"] if event["name"] == "batch_shed"]
        assert [event["fields"] for event in events] == [
            {"queue_depth": 1, "threshold": 1}
        ]
        assert tracer.aggregates()["tail"]["kept_interesting"] == 1


class TestRecovery:
    def test_batch_error_falls_back_per_request(self):
        execute = RecordingExecute(fail_with=RuntimeError("scan exploded"))
        fallback_calls = []

        def fallback(request):
            fallback_calls.append(request.payload)
            return ("solo", request.payload)

        config = BatchingConfig(max_batch=4)
        with BatchingExecutor(execute, fallback=fallback, config=config) as executor:
            submitters = [Submitter(executor, f"q{i}") for i in range(4)]
            results = {s.join() for s in submitters}
        assert results == {("solo", f"q{i}") for i in range(4)}
        assert sorted(fallback_calls) == [f"q{i}" for i in range(4)]
        assert executor.stats()["fallbacks"] == 4

    def test_batch_error_without_fallback_propagates(self):
        execute = RecordingExecute(fail_with=RuntimeError("scan exploded"))
        with BatchingExecutor(execute) as executor:
            with pytest.raises(RuntimeError, match="scan exploded"):
                executor.submit("q", KEY_A, 10)

    def test_wrong_result_count_is_recovered(self):
        gate = threading.Event()
        batches = []

        def execute(batch):
            batches.append(len(batch))
            if len(batches) == 1:
                gate.wait(10.0)
            return ["only-one"]  # wrong for the 2-request batch

        config = BatchingConfig(max_batch=2)
        with BatchingExecutor(
            execute, fallback=lambda r: ("solo", r.payload), config=config, leaders=1
        ) as executor:
            first = Submitter(executor, "seed")
            wait_for(lambda: len(batches) == 1)
            submitters = [Submitter(executor, f"q{i}") for i in range(2)]
            wait_for(lambda: executor.queue_depth == 2)
            gate.set()
            assert first.join() == "only-one"
            results = {s.join() for s in submitters}
        assert batches == [1, 2]
        assert results == {("solo", "q0"), ("solo", "q1")}

    def test_failing_fallback_propagates_to_the_submitter(self):
        execute = RecordingExecute(fail_with=RuntimeError("batch down"))

        def fallback(request):
            raise ValueError(f"solo down for {request.payload}")

        with BatchingExecutor(execute, fallback=fallback) as executor:
            with pytest.raises(ValueError, match="solo down for q"):
                executor.submit("q", KEY_A, 10)


class TestLifecycle:
    def test_shutdown_rejects_new_submits(self):
        executor = BatchingExecutor(RecordingExecute())
        executor.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            executor.submit("q", KEY_A, 10)

    def test_shutdown_drains_queued_requests(self):
        gate = threading.Event()
        execute = RecordingExecute(gate=gate)
        config = BatchingConfig(max_batch=1)
        executor = BatchingExecutor(execute, config=config, leaders=1)
        first = Submitter(executor, "seed")
        wait_for(lambda: len(execute.batches) == 1)
        queued = [Submitter(executor, f"q{i}") for i in range(3)]
        wait_for(lambda: executor.queue_depth == 3)
        gate.set()
        executor.shutdown()  # must serve the 3 queued requests first
        assert first.join() == ("served", "seed")
        assert {s.join() for s in queued} == {("served", f"q{i}") for i in range(3)}

    def test_shutdown_waits_for_the_batch_in_flight(self):
        """``shutdown`` returns only once a gated batch has finished, and
        then rejects new submits."""
        gate = threading.Event()
        execute = RecordingExecute(gate=gate)
        executor = BatchingExecutor(execute, leaders=1)
        first = Submitter(executor, "seed")
        wait_for(lambda: len(execute.batches) == 1)
        closer = threading.Thread(target=executor.shutdown, daemon=True)
        closer.start()
        closer.join(0.05)
        assert closer.is_alive(), "shutdown returned while a batch was running"
        gate.set()
        closer.join(10.0)
        assert not closer.is_alive()
        assert first.join() == ("served", "seed")
        with pytest.raises(RuntimeError, match="shut down"):
            executor.submit("q", KEY_A, 10)

    def test_shutdown_is_idempotent(self):
        executor = BatchingExecutor(RecordingExecute())
        executor.shutdown()
        executor.shutdown()  # no hang, no error

    def test_context_manager_shuts_down(self):
        with BatchingExecutor(RecordingExecute()) as executor:
            pass
        with pytest.raises(RuntimeError, match="shut down"):
            executor.submit("q", KEY_A, 10)


class TestConcurrentLeaders:
    @seed(22)
    @given(
        keys=hst.lists(hst.integers(0, 2), min_size=32, max_size=32),
        tenants=hst.lists(hst.integers(0, 3), min_size=32, max_size=32),
    )
    @settings(max_examples=15, deadline=None)
    def test_two_leaders_serve_each_request_once_in_tenant_order(self, keys, tenants):
        """32 concurrent submitters over 3 keys and 4 tenants: at most
        ``leaders`` batches overlap, every request is served exactly
        once with its own result, and each tenant's requests are
        collected in the order they were queued."""
        scopes = [(f"scope-{key}", 8, ("CholeskyKernel",)) for key in range(3)]
        # A counter clock, read only under the executor's lock: arrivals
        # and collection stamps are strictly ordered by queue events.
        ticks = itertools.count()
        lock = threading.Lock()
        running = [0, 0]  # current, peak
        collected = []

        def execute(batch):
            with lock:
                running[0] += 1
                running[1] = max(running)
                for position, request in enumerate(batch):
                    stamp = request.arrival + request.queue_wait
                    collected.append(
                        (stamp, position, request.tenant, request.arrival, request.payload)
                    )
            time.sleep(0.001)
            with lock:
                running[0] -= 1
            return [("served", request.payload) for request in batch]

        config = BatchingConfig(max_batch=4)
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more thread switches inside the lock dance
        try:
            with BatchingExecutor(
                execute, config=config, leaders=2, clock=lambda: float(next(ticks))
            ) as executor:
                submitters = [
                    Submitter(executor, i, scopes[key], tenant=f"t{tenant}")
                    for i, (key, tenant) in enumerate(zip(keys, tenants))
                ]
                results = [submitter.join() for submitter in submitters]
        finally:
            sys.setswitchinterval(switch_interval)
        assert results == [("served", i) for i in range(32)]
        assert sorted(payload for *_, payload in collected) == list(range(32))
        assert 1 <= running[1] <= 2
        collected.sort()
        for tenant in {f"t{t}" for t in tenants}:
            arrivals = [arrival for _, _, name, arrival, _ in collected if name == tenant]
            assert arrivals == sorted(arrivals)
