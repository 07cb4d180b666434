"""Untrusted request bytes: a 2xx/4xx answer or a clean close, nothing else.

The HTTP front-end parses raw bytes from the network, so the contract
for any byte sequence a client sends is:

* every response on the connection is a 2xx or 4xx (never a 500), or
  the server closes the connection cleanly;
* nothing reaches the event loop's exception handler (an exception
  escaping the connection handler closes the socket with no response);
* ``/healthz`` still answers afterwards.

The named cases pin a malformed ``Content-Length`` (once a
``ValueError`` out of the request reader) and a non-object JSON body
(once a 500).  The seeded property test sends raw requests built from
route templates, junk request lines, hostile headers and arbitrary
bodies against a background server.
"""

from __future__ import annotations

import json
import math
import socket
import threading

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as hst

from repro.service import RetrievalService
from repro.service.server import RetrievalServer

SESSIONS = ("fuzz-a", "fuzz-b")


@pytest.fixture(scope="module")
def server(database):
    with RetrievalService(
        database, k=5, use_index=False, n_shards=1, cache_size=4
    ) as service:
        for index, session_id in enumerate(SESSIONS):
            service.create_session(index, session_id=session_id)
        server = RetrievalServer(service, port=0, max_concurrent=4)
        server.start_in_background()
        errors = []
        installed = threading.Event()

        def install():
            server._loop.set_exception_handler(
                lambda loop, context: errors.append(context)
            )
            installed.set()

        server._loop.call_soon_threadsafe(install)
        assert installed.wait(10.0)
        server.loop_errors = errors
        yield server
        server.stop_background()


def exchange(server, raw: bytes) -> bytes:
    """Send ``raw``, half-close, and read until the server closes."""
    with socket.create_connection(server.address, timeout=10.0) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def statuses(stream: bytes):
    """Status codes of the responses in ``stream``, in order."""
    codes = []
    while stream:
        head, separator, rest = stream.partition(b"\r\n\r\n")
        assert separator, f"truncated response head: {stream[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        version, code = lines[0].split(" ")[:2]
        assert version == "HTTP/1.1"
        codes.append(int(code))
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        stream = rest[length:]
    return codes


def request(method: str, target: str, body: bytes = b"", headers=()) -> bytes:
    lines = [f"{method} {target} HTTP/1.1", *headers]
    if not any(line.lower().startswith("content-length") for line in headers):
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def assert_healthy(server) -> None:
    assert statuses(exchange(server, request("GET", "/healthz"))) == [200]
    assert server.loop_errors == []


class TestNamedCases:
    @pytest.mark.parametrize("length", ["abc", "-5", "+5", "1_0", "5.0", "²"])
    def test_malformed_content_length_is_400_and_closes(self, server, length):
        raw = request(
            "POST", "/sessions", b'{"query": 1}', [f"Content-Length: {length}"]
        )
        # A second, well-formed request on the same connection is never
        # read: the server cannot know where the first one ended.
        raw += request("GET", "/healthz")
        assert statuses(exchange(server, raw)) == [400]
        assert_healthy(server)

    def test_overlong_header_line_is_400(self, server):
        raw = request("GET", "/healthz", headers=["X-Junk: " + "a" * 70_000])
        assert statuses(exchange(server, raw)) == [400]
        assert_healthy(server)

    @pytest.mark.parametrize(
        "body",
        [b"[]", b'"query"', b"5", b"null", b'{"relevant_ids": 3}',
         b'{"relevant_ids": [true]}', b'{"relevant_ids": [1], "scores": {}}',
         b'{"relevant_ids": [1], "scores": ["a"]}', b'{"k": 2.5}'],
    )
    def test_malformed_feedback_body_is_400(self, server, body):
        raw = request("POST", f"/sessions/{SESSIONS[0]}/feedback", body)
        assert statuses(exchange(server, raw)) == [400]
        assert_healthy(server)

    @pytest.mark.parametrize(
        "body",
        [b"[]", b'"query"', b'{"query": Infinity}', b'{"query": NaN}',
         b'{"query": [NaN, 0, 0]}', b'{"query": {}}', b'{"query": 1, "session_id": 7}'],
    )
    def test_malformed_session_body_is_400(self, server, body):
        assert statuses(exchange(server, request("POST", "/sessions", body))) == [400]
        assert_healthy(server)

    def test_unparsable_target_is_400(self, server):
        assert statuses(exchange(server, request("GET", "http://[::1/x"))) == [400]
        assert_healthy(server)


def json_values():
    scalars = (
        hst.none()
        | hst.booleans()
        | hst.integers(-5, 200)
        | hst.floats(-1e3, 1e3)
        | hst.sampled_from([math.nan, math.inf])
        | hst.text(max_size=5)
    )
    return hst.recursive(
        scalars,
        lambda inner: hst.lists(inner, max_size=4)
        | hst.dictionaries(
            hst.sampled_from(
                ["query", "session_id", "relevant_ids", "scores", "k", "approximate"]
            )
            | hst.text(max_size=3),
            inner,
            max_size=4,
        ),
        max_leaves=8,
    )


_TEXT = hst.text(
    hst.characters(min_codepoint=32, max_codepoint=255, blacklist_characters="\r\n"),
    max_size=12,
)


@hst.composite
def raw_requests(draw):
    session = draw(hst.sampled_from(SESSIONS) | _TEXT)
    target = draw(
        hst.sampled_from(
            [
                "/healthz",
                "/stats",
                "/metrics",
                "/debug/slo",
                "/sessions",
                f"/sessions/{session}/page",
                f"/sessions/{session}/page?k=",
                f"/sessions/{session}/feedback",
                f"/sessions/{session}",
            ]
        )
        | _TEXT
    )
    target += draw(hst.sampled_from(["", "?k=3", "?approximate=1", "?k=0"]) | _TEXT)
    method = draw(hst.sampled_from(["GET", "POST", "DELETE", "PUT"]) | _TEXT)
    body = draw(
        json_values().map(lambda value: json.dumps(value).encode("utf-8"))
        | hst.binary(max_size=64)
    )
    headers = draw(
        hst.lists(
            hst.sampled_from(
                ["Connection: close", "X-Tenant: t1", "Content-Length: 0"]
            )
            | hst.builds(lambda value: f"Content-Length: {value}", _TEXT)
            | hst.builds(lambda value: f"traceparent: {value}", _TEXT)
            | _TEXT,
            max_size=3,
        )
    )
    raw = request(method, target, body, headers)
    if draw(hst.booleans()):
        raw = raw[: draw(hst.integers(0, len(raw)))]
    return raw


class TestFuzz:
    @seed(22)
    @given(raws=hst.lists(raw_requests(), min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_raw_requests_get_a_2xx_4xx_or_a_clean_close(self, server, raws):
        for code in statuses(exchange(server, b"".join(raws))):
            assert 200 <= code < 300 or 400 <= code < 500, code
        assert_healthy(server)
