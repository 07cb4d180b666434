"""Asyncio HTTP front-end for the retrieval service.

A deliberately small, dependency-free (stdlib ``asyncio``) HTTP/1.1
server exposing the :class:`~repro.service.engine.RetrievalService`
session API to network clients:

============================   =========================================
``POST /sessions``             open a session; JSON body ``{"query":
                               <row id | feature list>, "session_id"?,
                               "k"?}``; the ``X-Tenant`` header labels
                               the session's fair-queueing lane.
``GET /sessions/{id}/page``    current ranked page (``?k=`` override;
                               ``?approximate=1`` serves from the ANN
                               tier when the service has one, the page
                               stamped with its estimated recall).
``POST /sessions/{id}/feedback``  absorb judgments ``{"relevant_ids":
                               [...], "scores"?, "k"?,
                               "approximate"?: bool}``; returns the
                               refreshed page.
``DELETE /sessions/{id}``      close the session.
``GET /healthz``               liveness probe.
``GET /stats``                 the metrics snapshot as JSON (plus the
                               server's recent-error ring).
``GET /metrics``               Prometheus text exposition.
``GET /debug/slo``             SLO histograms, objectives and
                               error-budget burn rates as JSON.
============================   =========================================

**Distributed tracing.**  Every request is assigned (or joins) a
:class:`~repro.obs.TraceContext`: a well-formed ``traceparent`` header
wins, a sane ``X-Request-Id`` is adopted, and garbage in either
degrades to a fresh context — never an error.  Every response echoes
``X-Request-Id`` (the client's id when sane, the trace id otherwise)
and a ``traceparent`` carrying the server-side span, and error payloads
include the ``request_id`` so client logs join server traces.  The
service call runs under an ``http_request`` root span that adopts the
inbound context, so the whole request tree — HTTP span, engine spans,
batch span, worker-process scan spans — shares one trace id.

**Admission control.**  At most ``max_concurrent`` requests execute at
once (an :class:`asyncio.Semaphore`); excess connections queue at the
semaphore rather than stampeding the scan path.  The service calls
themselves are blocking (they may wait on a micro-batch), so they run
on a dedicated thread pool sized to the admission limit — the event
loop never blocks, and backpressure composes: socket accept → admission
semaphore → batching executor queue → micro-batch.

A request that cannot be framed (a bad ``Content-Length``, an
over-long line) is a 400 that closes the connection; a declared body
past ``_MAX_BODY_BYTES`` is a 413 that closes it the same way, since
the unread body would otherwise be parsed as the next request.

Pages serialize losslessly: JSON float round-trips are exact for IEEE
doubles, so a page read over HTTP compares bit-for-bit with the same
page served in-process.

The module also ships a **closed-loop load generator**
(:func:`closed_loop_load`): N simulated users, each running the
create → (page → judge → feedback) × rounds loop over its own
keep-alive connection, measuring queries/sec and latency percentiles —
the workload behind ``BENCH_batching.json`` and ``cli serve
--self-test``.
"""

from __future__ import annotations

import asyncio
import json
import math
import queue
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from ..obs import TraceContext, activate, with_trace_context
from ..obs.distributed import sanitize_request_id
from .engine import RetrievalService
from .metrics import percentile
from .sessions import SessionNotFound

__all__ = ["RetrievalServer", "closed_loop_load"]

_MAX_BODY_BYTES = 8 * 1024 * 1024


class _BodyTooLarge(ValueError):
    """A declared body past ``_MAX_BODY_BYTES``: answered 413, then closed."""


#: Recent error payloads kept for the /stats "server" section.
_ERROR_RING = 32
_REASON = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
}


def _json_object(body: bytes) -> Dict[str, Any]:
    payload = json.loads(body.decode("utf-8") or "{}")
    if not isinstance(payload, dict):
        raise ValueError(f"body must be a JSON object, not {type(payload).__name__}")
    return payload


def _numbers(values: Any, kind: type = float) -> bool:
    """Whether ``values`` is a JSON list of ``kind``: integers always
    qualify, finite floats only for ``float``, booleans never."""
    return isinstance(values, list) and all(
        isinstance(v, int) and not isinstance(v, bool)
        or kind is float and isinstance(v, float) and math.isfinite(v)
        for v in values
    )


def _page_payload(page) -> Dict[str, Any]:
    quality = page.quality
    quality_payload: Dict[str, Any] = {
        "level": quality.level,
        "reasons": list(quality.reasons),
        "exact": quality.is_exact,
    }
    if quality.estimated_recall is not None:
        quality_payload["estimated_recall"] = float(quality.estimated_recall)
    return {
        "ids": [int(i) for i in page.ids],
        "distances": [float(d) for d in page.distances],
        "iteration": int(page.iteration),
        "quality": quality_payload,
    }


class RetrievalServer:
    """Serve one :class:`RetrievalService` over HTTP.

    Args:
        service: the engine to front (its lifecycle is the caller's —
            stopping the server does not shut the service down).
        host: bind address.
        port: bind port (0 picks a free one; see :attr:`address`).
        max_concurrent: admission-control limit on in-flight requests.

    Use either as an async context (``await server.start()`` /
    ``await server.stop()``) inside an existing event loop, via
    :meth:`serve_forever` from synchronous code (the CLI), or via
    :meth:`start_in_background` / :meth:`stop_background` to run the
    event loop on a daemon thread (tests, load generation).
    """

    def __init__(
        self,
        service: RetrievalService,
        host: str = "127.0.0.1",
        port: int = 8080,
        *,
        max_concurrent: int = 64,
    ) -> None:
        if max_concurrent < 1:
            raise ValueError(
                f"max_concurrent must be at least 1, got {max_concurrent}"
            )
        self.service = service
        self.host = host
        self.port = port
        self.max_concurrent = max_concurrent
        self._server: Optional[asyncio.AbstractServer] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        # Service calls block (micro-batch waits, shard scans), so they
        # run off-loop on a pool wide enough for every admitted request.
        self._workers = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="repro-http"
        )
        self.address: Optional[Tuple[str, int]] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        # Appended on the event loop, read (as a copy) from /stats.
        self._recent_errors: Deque[Dict[str, Any]] = deque(maxlen=_ERROR_RING)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._semaphore = asyncio.Semaphore(self.max_concurrent)
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        name = sockets[0].getsockname()
        self.address = (name[0], name[1])
        return self.address

    async def stop(self) -> None:
        """Stop accepting and close the listening socket."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._workers.shutdown(wait=True)

    def serve_forever(self) -> None:
        """Blocking entry point for synchronous callers (the CLI)."""

        async def _run() -> None:
            await self.start()
            assert self._server is not None
            async with self._server:
                await self._server.serve_forever()

        asyncio.run(_run())

    def start_in_background(self) -> Tuple[str, int]:
        """Run the event loop on a daemon thread; returns ``(host, port)``.

        Blocks until the listening socket is bound, so ``port=0``
        callers can read :attr:`address` immediately.  Pair with
        :meth:`stop_background`.
        """
        if self._thread is not None:
            raise RuntimeError("server already started")
        bound: "queue.Queue[object]" = queue.Queue(maxsize=1)

        def _run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            try:
                try:
                    address = loop.run_until_complete(self.start())
                except BaseException as error:  # surfaced to the caller
                    bound.put(error)
                    return
                bound.put(address)
                loop.run_forever()
                loop.run_until_complete(self.stop())
                # Keep-alive connections may still have handler tasks
                # parked on a read; cancel them before closing the loop.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
            finally:
                loop.close()

        self._thread = threading.Thread(
            target=_run, name="repro-http-loop", daemon=True
        )
        self._thread.start()
        result = bound.get()
        if isinstance(result, BaseException):
            self._thread.join()
            self._thread = None
            raise result
        host, port = result  # type: ignore[misc]
        return host, port

    def stop_background(self) -> None:
        """Stop a :meth:`start_in_background` server and join its thread."""
        if self._thread is None:
            return
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()
        self._thread = None
        self._loop = None

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ValueError as error:
                    # Unframeable (a bad Content-Length, a line past the
                    # stream limit, an unread oversized body): where the
                    # next request starts is unknown.
                    status = 413 if isinstance(error, _BodyTooLarge) else 400
                    await self._write_response(
                        writer, status, {"error": str(error)}, keep_alive=False
                    )
                    break
                if request is None:
                    break
                method, path, headers, body = request
                context = TraceContext.from_headers(headers)
                request_id = (
                    sanitize_request_id(headers.get("x-request-id"))
                    or context.trace_id
                )
                assert self._semaphore is not None
                async with self._semaphore:
                    status, payload, span_id = await self._dispatch(
                        method, path, headers, body, context, request_id
                    )
                echo = context.child(span_id) if span_id is not None else context
                keep_alive = headers.get("connection", "keep-alive") != "close"
                await self._write_response(
                    writer,
                    status,
                    payload,
                    keep_alive,
                    extra_headers=echo.headers(request_id=request_id),
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionResetError,
            BrokenPipeError,
        ):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionResetError, BrokenPipeError):
                pass

    @staticmethod
    async def _read_request(reader: asyncio.StreamReader):
        try:
            request_line = await reader.readline()
        except (ConnectionResetError, asyncio.IncompleteReadError):
            return None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        raw_length = headers.get("content-length", "") or "0"
        if not (raw_length.isascii() and raw_length.isdigit()):
            raise ValueError(f"malformed Content-Length {raw_length[:32]!r}")
        length = int(raw_length)
        if length > _MAX_BODY_BYTES:
            raise _BodyTooLarge("request body too large")
        body = await reader.readexactly(length) if length else b""
        return method, target, headers, body

    async def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        if isinstance(payload, bytes):
            body = payload
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        elif payload is None:
            body = b""
            content_type = "application/json"
        else:
            body = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        lines = [
            f"HTTP/1.1 {status} {_REASON.get(status, 'OK')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in (extra_headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    async def _dispatch(
        self,
        method: str,
        target: str,
        headers: Dict[str, str],
        body: bytes,
        context: TraceContext,
        request_id: str,
    ) -> Tuple[int, Any, Optional[str]]:
        # Service calls run off-loop; the wrapper adopts the inbound
        # trace context on the worker thread, so the engine's own root
        # span nests under this request's http_request span and keeps
        # the propagated trace id.  The holder carries the server span
        # id back for the response's traceparent.
        holder: Dict[str, str] = {}
        tracer = self.service.tracer
        route_name = target
        loop = asyncio.get_running_loop()

        def traced(fn: Callable[[], Any]) -> Callable[[], Any]:
            def run() -> Any:
                with activate(tracer), with_trace_context(context):
                    with tracer.span(
                        "http_request",
                        method=method,
                        route=route_name,
                        request_id=request_id,
                    ) as span:
                        span_id = getattr(span, "span_id", None)
                        if span_id is not None:
                            holder["span_id"] = span_id
                        try:
                            return fn()
                        except BaseException:
                            span.set("error", True)
                            raise

            return run

        call = lambda fn: loop.run_in_executor(self._workers, traced(fn))  # noqa: E731
        try:
            split = urlsplit(target)
            path = [part for part in split.path.split("/") if part]
            query = {key: values[-1] for key, values in parse_qs(split.query).items()}
            route_name = "/" + "/".join(path)
            status, payload = await self._route(method, path, query, headers, body, call)
        except SessionNotFound as error:
            status, payload = 404, {"error": str(error)}
        except (ValueError, IndexError, KeyError, json.JSONDecodeError) as error:
            status, payload = 400, {"error": f"{type(error).__name__}: {error}"}
        except Exception as error:  # pragma: no cover - defensive 500
            status, payload = 500, {"error": f"{type(error).__name__}: {error}"}
        if status >= 400 and isinstance(payload, dict):
            payload = {**payload, "request_id": request_id}
            self._recent_errors.append(
                {
                    "request_id": request_id,
                    "status": status,
                    "route": route_name,
                    "error": str(payload.get("error", "")),
                }
            )
        return status, payload, holder.get("span_id")

    async def _route(
        self,
        method: str,
        path: List[str],
        query: Dict[str, str],
        headers: Dict[str, str],
        body: bytes,
        call: Callable[[Callable[[], Any]], Any],
    ) -> Tuple[int, Any]:

        if path == ["healthz"] and method == "GET":
            return 200, {"status": "ok", "sessions": len(self.service.store)}
        if path == ["stats"] and method == "GET":
            snapshot = await call(self.service.metrics_snapshot)
            snapshot["server"] = {"recent_errors": list(self._recent_errors)}
            return 200, snapshot
        if path == ["metrics"] and method == "GET":
            text = await call(self.service.prometheus_metrics)
            return 200, text.encode("utf-8")
        if path == ["debug", "slo"] and method == "GET":
            return 200, await call(self.service.slo.snapshot)
        if path == ["sessions"] and method == "POST":
            payload = _json_object(body)
            spec, requested_id = payload.get("query"), payload.get("session_id")
            if not (_numbers([spec], int) or _numbers(spec)):
                return 400, {"error": "body must carry a 'query': a row id or a vector"}
            if not isinstance(requested_id, (str, type(None))):
                return 400, {"error": "'session_id' must be a string"}
            tenant = headers.get("x-tenant")
            session_id = await call(
                lambda: self.service.create_session(
                    spec,
                    session_id=requested_id,
                    tenant=tenant,
                )
            )
            return 201, {"session_id": session_id}
        if len(path) == 3 and path[0] == "sessions" and path[2] == "page":
            if method != "GET":
                return 405, {"error": "page is GET-only"}
            session_id = path[1]
            k = int(query["k"]) if "k" in query else None
            approximate = query.get("approximate", "").lower() in ("1", "true", "yes")

            page = await call(
                lambda: self.service.query(session_id, k, approximate=approximate)
            )
            return 200, _page_payload(page)
        if len(path) == 3 and path[0] == "sessions" and path[2] == "feedback":
            if method != "POST":
                return 405, {"error": "feedback is POST-only"}
            session_id = path[1]
            payload = _json_object(body)
            relevant = payload.get("relevant_ids", [])
            scores = payload.get("scores")
            k = payload.get("k")
            approximate = payload.get("approximate", False)
            if not _numbers(relevant, int) or not (k is None or _numbers([k], int)):
                return 400, {"error": "'relevant_ids' must list row ids, 'k' an integer"}
            if not (scores is None or _numbers(scores)):
                return 400, {"error": "'scores' must be a list of numbers"}
            if not isinstance(approximate, bool):
                return 400, {"error": "'approximate' must be a JSON boolean"}
            page = await call(
                lambda: self.service.feedback(
                    session_id, relevant, scores, k, approximate=approximate
                )
            )
            return 200, _page_payload(page)
        if len(path) == 2 and path[0] == "sessions" and method == "DELETE":
            await call(lambda: self.service.close(path[1]))
            return 204, None
        return 404, {"error": f"no route for {method} /{'/'.join(path)}"}


# ----------------------------------------------------------------------
# Closed-loop load generator
# ----------------------------------------------------------------------


class _Connection:
    """One keep-alive HTTP/1.1 client connection (stdlib asyncio)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "_Connection":
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    async def __aexit__(self, *exc_info) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def request(
        self,
        method: str,
        path: str,
        body: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any]:
        assert self._reader is not None and self._writer is not None
        encoded = json.dumps(body).encode("utf-8") if body is not None else b""
        lines = [
            f"{method} {path} HTTP/1.1",
            f"Host: {self.host}:{self.port}",
            f"Content-Length: {len(encoded)}",
            "Content-Type: application/json",
        ]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self._writer.write(head + encoded)
        await self._writer.drain()
        status_line = await self._reader.readline()
        status = int(status_line.split()[1])
        response_headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            response_headers[name.strip().lower()] = value.strip()
        length = int(response_headers.get("content-length", "0") or "0")
        raw = await self._reader.readexactly(length) if length else b""
        if response_headers.get("content-type", "").startswith("application/json"):
            return status, (json.loads(raw.decode("utf-8")) if raw else None)
        return status, raw


def closed_loop_load(
    host: str,
    port: int,
    *,
    sessions: int = 64,
    rounds: int = 3,
    k: int = 10,
    query_ids: Optional[Sequence[int]] = None,
    tenants: int = 1,
    judge: Optional[Callable[[List[int], int], List[int]]] = None,
) -> Dict[str, Any]:
    """Drive a running server with N closed-loop feedback sessions.

    Each simulated user owns one keep-alive connection and runs the
    interactive loop — create session, then ``rounds`` iterations of
    fetch page → judge → send feedback — as fast as its responses come
    back (closed loop: concurrency is exactly ``sessions``).

    Args:
        host, port: the server to load.
        sessions: concurrent simulated users.
        rounds: feedback iterations per user.
        k: page size.
        query_ids: per-session seed row ids (default: session index).
        tenants: spread sessions round-robin over this many tenant
            labels.
        judge: ``(page_ids, session_index) -> relevant_ids`` (default:
            the first three ids).

    Returns:
        ``{qps, wall_s, queries, p50_s, p95_s, errors, pages}`` —
        ``pages`` maps ``(session_index, round)`` to the returned
        ``(ids, distances)`` tuples so callers can assert determinism
        across runs, and ``qps`` counts ranked pages (initial page +
        one per feedback round) per wall-clock second.
    """
    if judge is None:
        judge = lambda ids, index: ids[:3]  # noqa: E731
    latencies: List[float] = []
    errors: List[str] = []
    pages: Dict[Tuple[int, int], Tuple[Tuple[int, ...], Tuple[float, ...]]] = {}
    lock = threading.Lock()

    async def one_session(index: int) -> None:
        query_id = (
            int(query_ids[index % len(query_ids)])
            if query_ids is not None
            else index
        )
        headers = {"X-Tenant": f"tenant-{index % max(1, tenants)}"}
        async with _Connection(host, port) as conn:
            status, created = await conn.request(
                "POST", "/sessions", {"query": query_id}, headers
            )
            if status != 201:
                with lock:
                    errors.append(f"create failed: {status} {created}")
                return
            session_id = created["session_id"]
            start = time.perf_counter()
            status, page = await conn.request(
                "GET", f"/sessions/{session_id}/page?k={k}"
            )
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)
            if status != 200:
                with lock:
                    errors.append(f"page failed: {status} {page}")
                return
            pages[(index, 0)] = (
                tuple(page["ids"]),
                tuple(page["distances"]),
            )
            for round_index in range(1, rounds + 1):
                relevant = judge(list(page["ids"]), index)
                start = time.perf_counter()
                status, page = await conn.request(
                    "POST",
                    f"/sessions/{session_id}/feedback",
                    {"relevant_ids": relevant, "k": k},
                )
                elapsed = time.perf_counter() - start
                with lock:
                    latencies.append(elapsed)
                if status != 200:
                    with lock:
                        errors.append(f"feedback failed: {status} {page}")
                    return
                pages[(index, round_index)] = (
                    tuple(page["ids"]),
                    tuple(page["distances"]),
                )
            await conn.request("DELETE", f"/sessions/{session_id}")

    async def drive() -> float:
        start = time.perf_counter()
        await asyncio.gather(*(one_session(i) for i in range(sessions)))
        return time.perf_counter() - start

    wall = asyncio.run(drive())
    queries = len(latencies)
    return {
        "qps": queries / wall if wall > 0 else 0.0,
        "wall_s": wall,
        "queries": queries,
        "p50_s": percentile(latencies, 50.0) if latencies else 0.0,
        "p95_s": percentile(latencies, 95.0) if latencies else 0.0,
        "errors": errors,
        "pages": pages,
    }
