"""Structured tracing: nested timed spans with algorithmic events.

A production retrieval service is operated through traces, not print
statements: when a feedback round is slow, the operator needs to see
*which* stage (classify, merge, compile, scan, refine) took the time,
and *what* the adaptive clustering decided — a new cluster seeded
outside the chi-square radius (Eq. 6), a Hotelling ``T^2`` merge
accepted or rejected (Eqs. 14-16), a kernel cache hit, a progressive
scan pruning 99% of its candidates.

This module is the zero-dependency core of that story:

* :class:`Span` — one timed stage, carrying attributes, attached
  :class:`SpanEvent` records, and child spans; spans are context
  managers and nest through a :mod:`contextvars` stack, so instrumented
  code never passes span objects around.
* :class:`Tracer` — thread-safe producer of spans; completed *root*
  spans ("traces") are kept in a bounded ring, and per-span-name /
  per-event-name aggregates are maintained for metrics exposition.
  A ``sample_every`` knob traces only every N-th root span.
* :class:`NullTracer` / :data:`NULL_TRACER` — the no-op default: every
  instrumented hot path stays active in production code but costs one
  context-variable read and a no-op method call when tracing is off
  (measured well under the 2% budget in
  ``benchmarks/test_obs_overhead.py``).
* :func:`activate` / :func:`current_tracer` / :func:`add_event` — the
  ambient-tracer plumbing: the service activates its tracer for the
  duration of a request; library code asks for the current tracer (or
  appends an event to the current span) without any API changes.

Context propagation uses :mod:`contextvars`, so a service can ship the
ambient tracer *and* the open span into worker threads with
``contextvars.copy_context().run(...)`` — per-shard scan events then
land under the request's scan span even though they fire on pool
threads (span mutation is lock-protected).

Two distributed extensions (see :mod:`repro.obs.distributed`):

* a root span opened under an ambient
  :class:`~repro.obs.distributed.TraceContext` *adopts* it — same
  ``trace_id``, the remote span as ``parent_id``, and the propagated
  sampling decision in place of the local ``sample_every`` counter —
  so an HTTP request and its worker-process scans share one trace;
* :meth:`Span.add_foreign` grafts span *dicts* recorded in another
  process (shipped back on the worker pool's result round-trip) into
  the local tree, and :class:`TailSamplingPolicy` defers the
  keep-or-drop decision to the moment the root finishes — slow,
  degraded, faulted or shed traces are always retained, the boring
  rest probabilistically.
"""

from __future__ import annotations

import contextvars
import itertools
import random
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional

from .distributed import current_trace_context

__all__ = [
    "SpanEvent",
    "Span",
    "Tracer",
    "TailSamplingPolicy",
    "NullTracer",
    "NULL_TRACER",
    "NULL_SPAN",
    "current_tracer",
    "current_span",
    "activate",
    "add_event",
]


class SpanEvent:
    """One algorithmic event attached to a span.

    Attributes:
        name: event type (``"cluster_seeded"``, ``"t2_merge"``,
            ``"kernel_cache"``, ``"progressive_scan"``, ...).
        offset_s: seconds since the owning span started.
        fields: the event's payload (statistics, decisions, counts).
    """

    __slots__ = ("name", "offset_s", "fields")

    def __init__(self, name: str, offset_s: float, fields: Dict[str, Any]) -> None:
        self.name = name
        self.offset_s = offset_s
        self.fields = fields

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the export schema)."""
        return {
            "name": self.name,
            "offset_s": self.offset_s,
            "fields": dict(self.fields),
        }


class Span:
    """One timed, attributed stage of a trace.

    Spans are context managers::

        with tracer.span("classify", points=12) as span:
            ...
            span.event("cluster_seeded", radius_distance=d, radius=r)

    Entering pushes the span onto the ambient context (children created
    inside the ``with`` body attach here, even from worker threads that
    inherited the context); exiting records the duration and hands root
    spans back to the tracer.  Mutation (events, attributes, children)
    is lock-protected so concurrent shard workers can annotate one scan
    span safely.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_time",
        "duration_s",
        "attributes",
        "events",
        "children",
        "foreign",
        "_root",
        "_tracer",
        "_started",
        "_token",
        "_lock",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        trace_id: str,
        span_id: str,
        parent: Optional["Span"],
        attributes: Dict[str, Any],
        remote_parent_id: Optional[str] = None,
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        # A local root adopted from a propagated TraceContext keeps the
        # remote span as its parent link — it is still *this* tracer's
        # root (there is no local parent to attach to).
        self.parent_id = parent.span_id if parent is not None else remote_parent_id
        self.start_time = time.time()
        self.duration_s = 0.0
        self.attributes = attributes
        self.events: List[SpanEvent] = []
        self.children: List["Span"] = []
        #: Pre-built span dicts grafted from another process (worker
        #: scans shipped back on the pool's result round-trip).
        self.foreign: List[Dict[str, Any]] = []
        self._root = parent is None
        self._tracer = tracer
        self._started: Optional[float] = None
        self._token: Optional[contextvars.Token] = None
        self._lock = threading.Lock()

    @property
    def is_root(self) -> bool:
        """Whether this span is the root of its local trace.

        Not derivable from ``parent_id``: a root adopted from a
        propagated context carries the *remote* parent's id while still
        being the top of everything this process recorded.
        """
        return self._root

    def set(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        with self._lock:
            self.attributes[key] = value

    def event(self, name: str, **fields: Any) -> None:
        """Attach one algorithmic event, timestamped relative to the span."""
        started = self._started
        offset = self._tracer._clock() - started if started is not None else 0.0
        with self._lock:
            self.events.append(SpanEvent(name, offset, fields))

    def _add_child(self, child: "Span") -> None:
        with self._lock:
            self.children.append(child)

    def add_foreign(self, children: Iterable[Dict[str, Any]]) -> None:
        """Graft remote span dicts (``to_dict`` form) under this span.

        The stitching half of cross-process propagation: a worker
        records spans against the propagated context and returns their
        dicts piggybacked on its result; the coordinator grafts them
        here.  Each grafted root is re-parented onto this span so JSONL
        flatten/rebuild round-trips reconstruct one connected tree.
        """
        rewritten = []
        for child in children:
            node = dict(child)
            node["parent_id"] = self.span_id
            rewritten.append(node)
        with self._lock:
            self.foreign.extend(rewritten)

    def __enter__(self) -> "Span":
        self._started = self._tracer._clock()
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.duration_s = self._tracer._clock() - self._started
        if exc_type is not None and "error" not in self.attributes:
            # An escaping exception marks the span, so tail sampling
            # classifies the whole trace as interesting (kept).
            self.attributes["error"] = (
                repr(exc) if exc is not None else exc_type.__name__
            )
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        self._tracer._finish(self)

    def to_dict(self) -> Dict[str, Any]:
        """Nested plain-dict form — the single source for every exporter."""
        with self._lock:
            return {
                "name": self.name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start_time": self.start_time,
                "duration_s": self.duration_s,
                "attributes": dict(self.attributes),
                "events": [event.to_dict() for event in self.events],
                "children": [child.to_dict() for child in self.children]
                + [dict(node) for node in self.foreign],
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, events={len(self.events)}, "
            f"children={len(self.children)}, duration_s={self.duration_s:.6f})"
        )


class _NullSpan:
    """The do-nothing span: absorbs every call, nests for free."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SPAN"


#: The singleton no-op span (also marks "inside an unsampled trace").
NULL_SPAN = _NullSpan()

#: The ambient open span.  ``None`` means "no trace in progress";
#: :data:`NULL_SPAN` means "inside an unsampled or untraced region".
_CURRENT_SPAN: "contextvars.ContextVar[Optional[object]]" = contextvars.ContextVar(
    "repro_obs_span", default=None
)


class NullTracer:
    """The no-op default tracer: every span is :data:`NULL_SPAN`.

    Instrumented code runs identically against it — the whole tracing
    layer then costs one attribute lookup and an empty context-manager
    round trip per *stage* (never per database row).
    """

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        """A no-op span (ignores all arguments)."""
        return NULL_SPAN

    def traces(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        """Always empty."""
        return []

    def aggregates(self) -> Dict[str, Dict[str, Any]]:
        """Always empty."""
        return {"spans": {}, "events": {}}

    def event_count(self, name: str) -> int:
        """Always ``0`` — nothing is recorded."""
        return 0

    @property
    def enabled(self) -> bool:
        """``False`` — this tracer records nothing."""
        return False


#: Process-wide no-op singleton used wherever no tracer was supplied.
NULL_TRACER = NullTracer()


class Tracer:
    """Thread-safe producer of nested, timed spans.

    Args:
        max_traces: completed root spans kept in memory (ring buffer —
            old traces age out, like the metrics reservoirs).
        sample_every: trace only every N-th root span; the others run
            against :data:`NULL_SPAN` (children included) and cost the
            same as the disabled path.  ``1`` traces everything.
        clock: monotonic time source (injectable for tests).
        tail_sampling: optional :class:`TailSamplingPolicy` — the
            keep-or-drop decision for each finished *root* moves from
            span open (head sampling) to span close, so slow, degraded,
            faulted or shed traces are always retained.  ``None``
            (default) keeps every recorded root, as before.
        id_prefix: prefix for generated span ids.  Worker-process
            tracers set e.g. ``"w1a2b."`` so piggybacked span ids can
            never collide with the coordinator's within one stitched
            trace.
    """

    def __init__(
        self,
        max_traces: int = 64,
        sample_every: int = 1,
        clock=time.monotonic,
        tail_sampling: Optional["TailSamplingPolicy"] = None,
        id_prefix: str = "",
    ) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be at least 1, got {max_traces}")
        if sample_every < 1:
            raise ValueError(f"sample_every must be at least 1, got {sample_every}")
        self.max_traces = max_traces
        self.sample_every = sample_every
        self.tail_sampling = tail_sampling
        self._id_prefix = id_prefix
        self._clock = clock
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._roots_started = 0
        self._traces: Deque[Span] = deque(maxlen=max_traces)
        self._span_stats: Dict[str, Dict[str, float]] = {}
        self._event_counts: Dict[str, int] = {}
        self._tail_counts: Dict[str, int] = {
            "kept_slow": 0,
            "kept_interesting": 0,
            "kept_random": 0,
            "dropped": 0,
        }

    @property
    def enabled(self) -> bool:
        """``True`` — this tracer records (sampled) traces."""
        return True

    # ------------------------------------------------------------------
    # Span production
    # ------------------------------------------------------------------

    def span(self, name: str, **attributes: Any) -> object:
        """Open a span as a child of the ambient span (or a new root).

        Returns a context manager: a real :class:`Span` when the trace
        is sampled, :data:`NULL_SPAN` otherwise.
        """
        parent = _CURRENT_SPAN.get()
        if parent is NULL_SPAN:
            # Inside an unsampled trace: stay dark the whole way down.
            return NULL_SPAN
        remote = None
        with self._lock:
            if parent is None:
                remote = current_trace_context()
                if remote is not None:
                    # Adopted root: the propagated sampling decision
                    # replaces the local head-sampling counter — a
                    # caller that sampled the trace out keeps it dark
                    # end to end, one that sampled it in always wins.
                    if not remote.sampled:
                        return _UnsampledRoot()
                    trace_id = remote.trace_id
                else:
                    self._roots_started += 1
                    if (self._roots_started - 1) % self.sample_every != 0:
                        # Unsampled root: mark the context so descendants
                        # (including ones on copied worker contexts) skip too.
                        return _UnsampledRoot()
                    trace_id = f"{self._id_prefix}t{next(self._ids):08x}"
            else:
                trace_id = parent.trace_id  # type: ignore[union-attr]
            span_id = f"{self._id_prefix}s{next(self._ids):08x}"
        return Span(
            self,
            name,
            trace_id,
            span_id,
            parent,
            dict(attributes),
            remote_parent_id=remote.span_id if remote is not None else None,
        )

    def _finish(self, span: Span) -> None:
        """Record a completed span (called from ``Span.__exit__``)."""
        parent = _CURRENT_SPAN.get()
        with self._lock:
            self._record_stats(span.name, span.duration_s)
            for event in span.events:
                self._event_counts[event.name] = (
                    self._event_counts.get(event.name, 0) + 1
                )
            # Grafted worker spans never pass through _finish locally —
            # fold their stats in when their host span completes.
            for node in span.foreign:
                self._record_foreign(node)
        if span.is_root:
            with self._lock:
                if self.tail_sampling is not None:
                    verdict = self.tail_sampling.decide(span)
                    if verdict == "drop":
                        self._tail_counts["dropped"] += 1
                        return
                    self._tail_counts[f"kept_{verdict}"] += 1
                self._traces.append(span)
        elif isinstance(parent, Span):
            parent._add_child(span)

    def _record_stats(self, name: str, duration_s: float) -> None:
        """Fold one span observation into aggregates (lock held)."""
        stats = self._span_stats.setdefault(
            name, {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        stats["count"] += 1
        stats["total_s"] += duration_s
        if duration_s > stats["max_s"]:
            stats["max_s"] = duration_s

    def _record_foreign(self, node: Dict[str, Any]) -> None:
        """Recursively count a grafted span dict (lock held)."""
        self._record_stats(str(node.get("name", "?")), float(node.get("duration_s", 0.0)))
        for event in node.get("events", ()):
            name = str(event.get("name", "?"))
            self._event_counts[name] = self._event_counts.get(name, 0) + 1
        for child in node.get("children", ()):
            self._record_foreign(child)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def traces(self, last: Optional[int] = None) -> List[Dict[str, Any]]:
        """The most recent completed traces, oldest first, as dicts.

        Args:
            last: keep only the trailing ``last`` traces (default: all
                retained).
        """
        with self._lock:
            roots = list(self._traces)
        if last is not None:
            if last < 0:
                raise ValueError(f"last must be non-negative, got {last}")
            roots = roots[len(roots) - min(last, len(roots)):]
        return [root.to_dict() for root in roots]

    def aggregates(self) -> Dict[str, Dict[str, Any]]:
        """Per-span-name timing stats and per-event-name counts.

        ``{"spans": {name: {count, total_s, max_s}}, "events": {name: n}}``
        — the tracer-side input of the Prometheus exposition.  When a
        tail-sampling policy is configured a ``"tail"`` section with the
        keep/drop decision counts is included as well.
        """
        with self._lock:
            result: Dict[str, Dict[str, Any]] = {
                "spans": {name: dict(stats) for name, stats in self._span_stats.items()},
                "events": dict(self._event_counts),
            }
            if self.tail_sampling is not None:
                result["tail"] = dict(self._tail_counts)
            return result

    def event_count(self, name: str) -> int:
        """How many ``name`` events completed spans have recorded.

        Chaos tests use this to assert injected-fault and recovery
        events (``fault_injected``, ``retry``, ``shard_failed``, ...) actually
        surfaced in the traces.
        """
        with self._lock:
            return self._event_counts.get(name, 0)

    def clear(self) -> None:
        """Drop retained traces and aggregates (sampling counter kept)."""
        with self._lock:
            self._traces.clear()
            self._span_stats.clear()
            self._event_counts.clear()


class TailSamplingPolicy:
    """Keep-or-drop decided when the *root* span finishes.

    Head sampling (``sample_every``) decides before the request runs and
    therefore drops slow and faulted traces exactly as often as boring
    ones.  A tail policy defers the decision to request end:

    * **slow** — root duration exceeded ``slow_threshold_s``: kept.
    * **interesting** — the trace recorded a fault, retry, shard
      failure, degradation, shed, or an ``error`` attribute anywhere in
      the tree (grafted worker spans included): kept.
    * **random** — a deterministic ``keep_probability`` coin for the
      boring rest (seeded, so CI runs are reproducible).
    * **drop** — everything else; the span still counted toward
      aggregates, only the retained-trace ring skips it.

    Args:
        slow_threshold_s: root durations above this are always kept.
        keep_probability: chance a boring trace is kept anyway
            (``0.0`` → only slow/interesting traces survive).
        seed: seed for the keep coin.
    """

    #: Event names that mark a trace worth keeping unconditionally.
    _INTERESTING_EVENTS = frozenset(
        {
            "fault_injected",
            "retry",
            "shard_failed",
            "result_quality",
            "batch_shed",
            "error",
        }
    )

    def __init__(
        self,
        slow_threshold_s: float = 0.25,
        keep_probability: float = 0.1,
        seed: int = 0,
    ) -> None:
        if slow_threshold_s < 0:
            raise ValueError(
                f"slow_threshold_s must be non-negative, got {slow_threshold_s}"
            )
        if not 0.0 <= keep_probability <= 1.0:
            raise ValueError(
                f"keep_probability must be in [0, 1], got {keep_probability}"
            )
        self.slow_threshold_s = slow_threshold_s
        self.keep_probability = keep_probability
        self._random = random.Random(seed)

    def decide(self, root: Span) -> str:
        """``"slow"`` | ``"interesting"`` | ``"random"`` | ``"drop"``."""
        if root.duration_s > self.slow_threshold_s:
            return "slow"
        if self._interesting(root):
            return "interesting"
        if self.keep_probability > 0 and self._random.random() < self.keep_probability:
            return "random"
        return "drop"

    def _interesting(self, span: Span) -> bool:
        """Whether any span in the tree marks the trace worth keeping."""
        if span.attributes.get("error"):
            return True
        for event in span.events:
            if event.name in self._INTERESTING_EVENTS:
                return True
        for child in span.children:
            if self._interesting(child):
                return True
        for node in span.foreign:
            if self._interesting_dict(node):
                return True
        return False

    def _interesting_dict(self, node: Dict[str, Any]) -> bool:
        """`_interesting` over a grafted (plain-dict) worker span."""
        if dict(node.get("attributes") or {}).get("error"):
            return True
        for event in node.get("events", ()):
            if event.get("name") in self._INTERESTING_EVENTS:
                return True
        for child in node.get("children", ()):
            if self._interesting_dict(child):
                return True
        return False


class _UnsampledRoot:
    """Context manager marking a whole trace as unsampled.

    Sets the ambient span to :data:`NULL_SPAN` for the duration, so
    descendant ``span()`` calls (and :func:`add_event`) short-circuit.
    """

    __slots__ = ("_token",)

    def set(self, key: str, value: Any) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def __enter__(self) -> "_UnsampledRoot":
        self._token = _CURRENT_SPAN.set(NULL_SPAN)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        _CURRENT_SPAN.reset(self._token)


# ----------------------------------------------------------------------
# Ambient plumbing
# ----------------------------------------------------------------------

_ACTIVE_TRACER: "contextvars.ContextVar[object]" = contextvars.ContextVar(
    "repro_obs_tracer", default=NULL_TRACER
)


def current_tracer():
    """The ambient tracer (:data:`NULL_TRACER` unless one is activated)."""
    return _ACTIVE_TRACER.get()


def current_span() -> Optional[object]:
    """The ambient open span, or ``None`` outside any trace."""
    span = _CURRENT_SPAN.get()
    return None if span is None or span is NULL_SPAN else span


@contextmanager
def activate(tracer) -> Iterator[None]:
    """Make ``tracer`` the ambient tracer for the ``with`` body.

    The binding is a context variable: it follows
    ``contextvars.copy_context()`` into worker threads and never leaks
    across concurrent requests.
    """
    token = _ACTIVE_TRACER.set(tracer if tracer is not None else NULL_TRACER)
    try:
        yield
    finally:
        _ACTIVE_TRACER.reset(token)


def add_event(name: str, **fields: Any) -> None:
    """Attach an event to the ambient span (no-op outside a trace).

    The hook library code uses to report algorithmic decisions without
    holding a span reference; when no trace is active this is one
    context-variable read and a ``None`` check.
    """
    span = _CURRENT_SPAN.get()
    if span is None or span is NULL_SPAN:
        return
    span.event(name, **fields)  # type: ignore[union-attr]
