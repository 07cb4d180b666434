"""Observability overhead: the disabled tracer must be ~free.

The tracing layer stays compiled into every hot path (classify, merge,
compile, scan, refine), so its *disabled* cost is what production pays
unconditionally.  Three measurements:

* the null path per instrumentation point — one context-variable read
  plus a no-op method call — benchmarked directly and budgeted against
  a feedback round (the <2% acceptance criterion, measured without
  wall-clock races);
* end-to-end sessions/sec with the default ``NULL_TRACER`` vs a
  recording :class:`~repro.obs.Tracer` (interleaved min-of-N, printed
  for the record; recording is allowed to cost something);
* sampled tracing (``sample_every`` large) must land near the disabled
  path, since unsampled roots short-circuit the whole trace.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.obs import NULL_TRACER, Tracer, add_event, current_tracer
from repro.retrieval import SimulatedUser
from repro.service import RetrievalService

#: Instrumentation points touched per feedback round, counted generously
#: (spans: feedback/classify/merge/compile/scan/refine; events:
#: result_cache/kernel_cache/index_knn/progressive_scan plus per-cluster
#: merge and seeding decisions).
CALLS_PER_ROUND = 64

#: The acceptance budget: disabled-tracer overhead per feedback round.
OVERHEAD_BUDGET = 0.02


def drive_session(service, database, query_id: int, rounds: int = 3) -> None:
    session = service.create_session(query_id)
    user = SimulatedUser(database, database.category_of(query_id))
    page = service.query(session)
    for _ in range(rounds):
        judgment = user.judge(page.ids)
        page = service.feedback(session, judgment.relevant_indices, judgment.scores)
    service.close(session)


def timed_workload(database, tracer, query_ids) -> float:
    service = RetrievalService(database, k=50, cache_size=0, tracer=tracer)
    try:
        start = time.perf_counter()
        for query_id in query_ids:
            drive_session(service, database, int(query_id))
        return time.perf_counter() - start
    finally:
        service.shutdown()


class TestDisabledOverhead:
    def test_null_path_cost_fits_round_budget(self, color_database):
        """Per-point null cost x points-per-round stays under 2% of a
        measured feedback round."""
        # Measure the null instrumentation point: ambient lookups plus
        # the no-op span round trip, exactly what hot paths execute.
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            with current_tracer().span("stage"):
                add_event("event", value=1)
        per_call = (time.perf_counter() - start) / n

        # Measure one real feedback round through the service.
        service = RetrievalService(color_database, k=50, cache_size=0)
        try:
            session = service.create_session(0)
            user = SimulatedUser(color_database, color_database.category_of(0))
            page = service.query(session)
            judgment = user.judge(page.ids)
            start = time.perf_counter()
            service.feedback(session, judgment.relevant_indices, judgment.scores)
            round_seconds = time.perf_counter() - start
        finally:
            service.shutdown()

        share = per_call * CALLS_PER_ROUND / round_seconds
        print(
            f"\nnull instrumentation point: {per_call * 1e9:.0f} ns; "
            f"{CALLS_PER_ROUND} points/round over a {round_seconds * 1e3:.1f} ms "
            f"round = {share:.4%} overhead"
        )
        assert share < OVERHEAD_BUDGET

    def test_disabled_fault_point_fits_round_budget(self, color_database):
        """The fault layer rides the same budget: with no plan armed a
        ``fault_point`` is one context-variable read, and a round's worth
        of them must stay under the 2% overhead criterion."""
        from repro.faults import fault_point, faults_active, register_site

        site = register_site("bench.overhead", "disabled-cost measurement site")
        assert not faults_active()
        n = 200_000
        start = time.perf_counter()
        for _ in range(n):
            fault_point(site, key="k")
        per_call = (time.perf_counter() - start) / n

        service = RetrievalService(color_database, k=50, cache_size=0)
        try:
            session = service.create_session(0)
            user = SimulatedUser(color_database, color_database.category_of(0))
            page = service.query(session)
            judgment = user.judge(page.ids)
            start = time.perf_counter()
            service.feedback(session, judgment.relevant_indices, judgment.scores)
            round_seconds = time.perf_counter() - start
        finally:
            service.shutdown()

        share = per_call * CALLS_PER_ROUND / round_seconds
        print(
            f"\ndisabled fault point: {per_call * 1e9:.0f} ns; "
            f"{CALLS_PER_ROUND} points/round over a {round_seconds * 1e3:.1f} ms "
            f"round = {share:.4%} overhead"
        )
        assert share < OVERHEAD_BUDGET

    def test_propagation_and_slo_fit_round_budget(self, color_database):
        """Per-request observability rides the same budget: header parse
        + context adoption + an always-on SLO observation + one stage
        histogram observation, measured against a real feedback round."""
        from repro.obs import (
            SLOTracker,
            TraceContext,
            add_event,
            current_tracer,
            with_trace_context,
        )
        from repro.service import ServiceMetrics

        headers = {
            "traceparent": f"00-{'ab' * 16}-{'cd' * 8}-01",
            "x-request-id": "bench-req",
        }
        slo = SLOTracker()
        metrics = ServiceMetrics()
        n = 100_000
        start = time.perf_counter()
        for _ in range(n):
            context = TraceContext.from_headers(headers)
            with with_trace_context(context):
                with current_tracer().span("http_request"):
                    add_event("event", value=1)
            slo.observe("query", 0.001, tenant="bench", exact=True)
            metrics.observe("query", 0.001)
        per_request = (time.perf_counter() - start) / n

        service = RetrievalService(color_database, k=50, cache_size=0)
        try:
            session = service.create_session(0)
            user = SimulatedUser(color_database, color_database.category_of(0))
            page = service.query(session)
            judgment = user.judge(page.ids)
            start = time.perf_counter()
            service.feedback(session, judgment.relevant_indices, judgment.scores)
            round_seconds = time.perf_counter() - start
        finally:
            service.shutdown()

        # One request = one header parse, one adoption, one SLO sample,
        # one stage-histogram sample — not one per instrumentation
        # point, so the per-round multiplier is a handful of requests,
        # budgeted generously at 4.
        share = per_request * 4 / round_seconds
        print(
            f"\npropagation+SLO+stage histogram per request: "
            f"{per_request * 1e9:.0f} ns; "
            f"4 requests/round over a {round_seconds * 1e3:.1f} ms round "
            f"= {share:.4%} overhead"
        )
        assert share < OVERHEAD_BUDGET

    def test_null_tracer_is_the_default(self, color_database):
        service = RetrievalService(color_database)
        try:
            assert service.tracer is NULL_TRACER
            assert not service.tracer.enabled
        finally:
            service.shutdown()


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def query_ids(self, color_database):
        rng = np.random.default_rng(23)
        return rng.integers(0, color_database.size, size=6)

    def test_recording_and_sampled_tracing_cost(self, color_database, query_ids):
        timed_workload(color_database, None, query_ids)  # warm-up
        disabled, recording, sampled = [], [], []
        for _ in range(3):  # interleaved so noise bursts hit every path
            disabled.append(timed_workload(color_database, None, query_ids))
            recording.append(
                timed_workload(color_database, Tracer(max_traces=256), query_ids)
            )
            sampled.append(
                timed_workload(
                    color_database, Tracer(sample_every=1_000_000), query_ids
                )
            )
        base, traced, dark = min(disabled), min(recording), min(sampled)
        print(
            f"\nworkload: disabled {base * 1e3:.1f} ms, "
            f"recording {traced * 1e3:.1f} ms ({traced / base:.3f}x), "
            f"sampled-out {dark * 1e3:.1f} ms ({dark / base:.3f}x)"
        )
        # Recording every span may cost something, but never multiples.
        assert traced < base * 1.5
        # Sampling out must behave like disabled tracing (generous slack
        # for timer noise on a sub-second workload).
        assert dark < base * 1.25
