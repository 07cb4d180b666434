"""Prometheus text-format (v0.0.4) exposition for the retrieval service.

Turns a :meth:`~repro.service.metrics.ServiceMetrics.snapshot` dict
plus a tracer's aggregates into the plain-text exposition format every
Prometheus-compatible scraper understands:

* counters → ``repro_<name>_total``;
* per-stage latency → one ``histogram`` family
  ``repro_stage_duration_seconds`` labelled by ``stage``;
* derived rates and gauges (cache hit rates, refine fraction, uptime,
  store/cache occupancy) → ``gauge`` families;
* tracer aggregates → ``repro_span_duration_seconds_total`` /
  ``repro_spans_total`` per span name and ``repro_trace_events_total``
  per algorithmic event name (plus ``repro_tail_sampling_total`` when
  a tail policy is active);
* SLO layer → ``repro_request_duration_seconds`` ``histogram`` per
  route/tenant/quality and the ``repro_slo_error_budget_burn_rate``
  gauge per objective/window;
* batching fairness → ``repro_batch_queue_wait_seconds`` per-tenant
  queue-wait ``histogram``.

Every latency family shares the one
:data:`~repro.obs.slo.DEFAULT_BUCKETS` ``le`` ladder.

Everything is generated, never scraped from global state: callers pass
the snapshot (and optionally the tracer) explicitly, so exposition is
as testable as any pure function.  The output is validated against the
text-format grammar in ``tests/obs/test_prometheus.py``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from .slo import DEFAULT_BUCKETS

__all__ = ["prometheus_text"]


def _sanitize_name(name: str) -> str:
    """Make a metric-name-safe token: ``[a-zA-Z_][a-zA-Z0-9_]*``."""
    cleaned = "".join(
        char if char.isalnum() or char == "_" else "_" for char in name
    )
    if not cleaned or cleaned[0].isdigit():
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: str) -> str:
    """Escape a label value per the text-format rules."""
    return value.replace("\\", "\\\\").replace("\n", "\\n").replace('"', '\\"')


def _format_number(value: Any) -> str:
    number = float(value)
    if number != number:  # NaN
        return "NaN"
    if number in (float("inf"), float("-inf")):
        return "+Inf" if number > 0 else "-Inf"
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


class _Writer:
    """Accumulates exposition lines with one HELP/TYPE header per family."""

    def __init__(self) -> None:
        self._lines: List[str] = []

    def family(self, name: str, kind: str, help_text: str) -> None:
        self._lines.append(f"# HELP {name} {help_text}")
        self._lines.append(f"# TYPE {name} {kind}")

    def sample(
        self,
        name: str,
        value: Any,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        if labels:
            body = ",".join(
                f'{key}="{_escape_label(str(val))}"'
                for key, val in sorted(labels.items())
            )
            self._lines.append(f"{name}{{{body}}} {_format_number(value)}")
        else:
            self._lines.append(f"{name} {_format_number(value)}")

    def text(self) -> str:
        return "\n".join(self._lines) + "\n"


def _histogram_family(
    writer: _Writer,
    family: str,
    help_text: str,
    series: Iterable[Tuple[Dict[str, str], Mapping[str, Any]]],
) -> None:
    """One ``histogram`` family from labelled histogram snapshots
    (cumulative ``counts`` on :data:`DEFAULT_BUCKETS`, ``sum``, ``count``)."""
    writer.family(family, "histogram", help_text)
    for labels, histogram in series:
        count = histogram.get("count", 0)
        for bound, cumulative in zip(DEFAULT_BUCKETS, histogram.get("counts") or []):
            writer.sample(
                f"{family}_bucket", cumulative, {**labels, "le": _format_number(bound)}
            )
        writer.sample(f"{family}_bucket", count, {**labels, "le": "+Inf"})
        writer.sample(f"{family}_sum", histogram.get("sum", 0.0), labels)
        writer.sample(f"{family}_count", count, labels)


def prometheus_text(
    snapshot: Dict[str, Any],
    tracer=None,
    namespace: str = "repro",
) -> str:
    """Render one scrape of the service's operational state.

    Args:
        snapshot: a :meth:`ServiceMetrics.snapshot` /
            :meth:`RetrievalService.metrics_snapshot` dict.
        tracer: optional :class:`~repro.obs.tracer.Tracer`; its
            per-span-name timings and per-event-name counts are
            appended as counter families.
        namespace: metric-name prefix.

    Returns:
        The complete exposition body (text format v0.0.4), one
        ``# HELP`` / ``# TYPE`` header per family, newline-terminated.
    """
    writer = _Writer()
    prefix = _sanitize_name(namespace)

    counters = snapshot.get("counters", {})
    if counters:
        name = f"{prefix}_events_total"
        writer.family(name, "counter", "Monotonic service counters by name.")
        for counter, value in sorted(counters.items()):
            writer.sample(name, value, {"counter": _sanitize_name(counter)})

    latency = snapshot.get("latency", {})
    if latency:
        _histogram_family(
            writer,
            f"{prefix}_stage_duration_seconds",
            "Per-stage latency (fixed cumulative buckets).",
            (({"stage": name}, stage) for name, stage in sorted(latency.items())),
        )

    gauges = [
        ("cache_hit_rate", "Result-cache hit rate over the service lifetime."),
        ("kernel_cache_hit_rate", "Compiled-kernel cache hit rate."),
        ("refine_fraction", "Exactly-refined share of all ranking candidates."),
        ("uptime_seconds", "Seconds since the metrics object was (re)started."),
        ("degradations", "Total degraded rankings (errors + deadline misses)."),
    ]
    for key, help_text in gauges:
        if key in snapshot:
            name = f"{prefix}_{_sanitize_name(key)}"
            writer.family(name, "gauge", help_text)
            writer.sample(name, snapshot[key])

    feature_store = snapshot.get("feature_store")
    if isinstance(feature_store, dict) and "block_reads" in feature_store:
        name = f"{prefix}_store_block_reads_total"
        writer.family(
            name,
            "counter",
            "Feature-store block reads served from the coordinator's mmap.",
        )
        writer.sample(name, feature_store["block_reads"])

    worker_pool = snapshot.get("worker_pool")
    if isinstance(worker_pool, dict) and "busy" in worker_pool:
        name = f"{prefix}_worker_pool_busy"
        writer.family(
            name,
            "gauge",
            "Shard scans currently in flight on the worker-process pool.",
        )
        writer.sample(name, worker_pool["busy"])

    batching = snapshot.get("batching")
    if isinstance(batching, dict) and "batches" in batching:
        name = f"{prefix}_batch_queue_depth"
        writer.family(
            name,
            "gauge",
            "Queries currently waiting in the batching executor.",
        )
        writer.sample(name, batching["queue_depth"])
        name = f"{prefix}_batches_total"
        writer.family(
            name, "counter", "Micro-batches executed by the batching executor."
        )
        writer.sample(name, batching["batches"])
        name = f"{prefix}_batched_queries_total"
        writer.family(
            name, "counter", "Queries served through a coalesced micro-batch."
        )
        writer.sample(name, batching["batched_queries"])
        family = f"{prefix}_batch_size"
        writer.family(
            family,
            "summary",
            "Micro-batch sizes: recent-reservoir quantiles plus totals.",
        )
        writer.sample(family, batching.get("p50_batch_size", 0.0), {"quantile": "0.5"})
        writer.sample(family, batching.get("max_batch_size", 0.0), {"quantile": "1"})
        writer.sample(f"{family}_sum", batching["batched_queries"])
        writer.sample(f"{family}_count", batching["batches"])
        tenants = batching.get("tenants_served")
        if isinstance(tenants, dict) and tenants:
            name = f"{prefix}_batch_tenant_queries_total"
            writer.family(
                name, "counter", "Batched queries served per fair-queueing tenant."
            )
            for tenant, count in sorted(tenants.items()):
                writer.sample(name, count, {"tenant": _escape_label(str(tenant))})
        queue_wait = batching.get("queue_wait_by_tenant")
        if isinstance(queue_wait, dict) and queue_wait:
            _histogram_family(
                writer,
                f"{prefix}_batch_queue_wait_seconds",
                "Per-tenant enqueue-to-dispatch wait in the batching executor "
                "(fixed cumulative buckets).",
                (
                    ({"tenant": str(tenant)}, wait)
                    for tenant, wait in sorted(queue_wait.items())
                ),
            )

    slo = snapshot.get("slo")
    if isinstance(slo, dict):
        histograms = slo.get("histograms") or []
        if histograms:
            _histogram_family(
                writer,
                f"{prefix}_request_duration_seconds",
                "Request latency by route, tenant and result quality "
                "(fixed cumulative buckets).",
                (
                    ({key: str(row.get(key, "")) for key in ("route", "tenant", "quality")}, row)
                    for row in histograms
                ),
            )
        objectives = slo.get("objectives") or []
        if objectives:
            name = f"{prefix}_slo_error_budget_burn_rate"
            writer.family(
                name,
                "gauge",
                "Error-budget burn rate per objective and sliding window "
                "(1.0 spends the budget exactly at the sustainable pace).",
            )
            for objective in objectives:
                for window, stats in sorted((objective.get("windows") or {}).items()):
                    writer.sample(
                        name,
                        stats.get("burn_rate", 0.0),
                        {
                            "objective": _sanitize_name(str(objective.get("name", ""))),
                            "window": str(window),
                        },
                    )

    for section, help_text in (
        ("store", "Session-store occupancy."),
        ("cache", "Result-cache occupancy and hit rate."),
        ("kernels", "Kernel-cache occupancy and hit/miss totals."),
        ("feature_store", "Feature-store identity, geometry and read counters."),
        ("worker_pool", "Shard worker-pool occupancy and task totals."),
        ("batching", "Batching-executor queue, shed and fallback totals."),
        ("result_quality", "Result-quality provenance: exact vs degraded pages."),
    ):
        values = snapshot.get(section)
        if isinstance(values, dict):
            name = f"{prefix}_{section}_info"
            writer.family(name, "gauge", help_text)
            for field, value in sorted(values.items()):
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    writer.sample(name, value, {"field": _sanitize_name(field)})
            if section == "result_quality":
                reasons = values.get("reasons")
                if isinstance(reasons, dict) and reasons:
                    reasons_name = f"{prefix}_degraded_results_total"
                    writer.family(
                        reasons_name,
                        "counter",
                        "Degraded result pages by provenance reason.",
                    )
                    for reason, count in sorted(reasons.items()):
                        writer.sample(
                            reasons_name, count, {"reason": _sanitize_name(reason)}
                        )

    if tracer is not None:
        aggregates = tracer.aggregates()
        span_stats = aggregates.get("spans", {})
        if span_stats:
            counts = f"{prefix}_spans_total"
            writer.family(counts, "counter", "Completed trace spans by name.")
            for span_name, stats in sorted(span_stats.items()):
                writer.sample(
                    counts, stats.get("count", 0), {"name": _sanitize_name(span_name)}
                )
            seconds = f"{prefix}_span_duration_seconds_total"
            writer.family(
                seconds, "counter", "Cumulative seconds spent in spans by name."
            )
            for span_name, stats in sorted(span_stats.items()):
                writer.sample(
                    seconds,
                    stats.get("total_s", 0.0),
                    {"name": _sanitize_name(span_name)},
                )
        event_counts = aggregates.get("events", {})
        if event_counts:
            name = f"{prefix}_trace_events_total"
            writer.family(
                name, "counter", "Algorithmic trace events by event name."
            )
            for event_name, count in sorted(event_counts.items()):
                writer.sample(name, count, {"event": _sanitize_name(event_name)})
        tail_counts = aggregates.get("tail", {})
        if tail_counts:
            name = f"{prefix}_tail_sampling_total"
            writer.family(
                name,
                "counter",
                "Tail-sampling keep/drop decisions for finished root spans.",
            )
            for decision, count in sorted(tail_counts.items()):
                writer.sample(name, count, {"decision": _sanitize_name(decision)})

    return writer.text()
