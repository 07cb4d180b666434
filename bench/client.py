"""The benchmark's client side: server processes, HTTP calls, sessions.

Every HTTP call is timed on the client (the latency a judging user
waits for) and tagged with a fresh ``X-Request-Id``, which the server
adopts as the trace id of its ``http_request`` span.  The client span
of each call is therefore joinable to the server's trace in the traced
pass.

The load is closed-loop: a fixed number of simulated users, each on its
own keep-alive connection, run whole sessions back to back and send
each request only after the previous page arrived and was judged.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ledger import recall
from workloads import K, REREADS, ROUNDS, Workload, judge

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"

#: Simulated users (keep-alive connections) of the measured phases.
USERS = 2
#: Longest wait for any single response or server lifecycle step.
TIMEOUT_S = 120.0


@dataclass
class Call:
    """One client-timed HTTP call."""

    kind: str  # "create" | "page" | "round" | "delete" | "stats"
    session: int
    request_id: str
    latency_s: float
    ok: bool


@dataclass
class SessionLog:
    """Everything one session saw, for the correctness gate."""

    index: int
    query_row: int
    pages: List[Dict[str, Any]] = field(default_factory=list)
    recalls: List[float] = field(default_factory=list)
    completed: bool = False


class RequestIds:
    """32-hex request ids, unique within one benchmark invocation."""

    def __init__(self) -> None:
        self._prefix = os.urandom(8).hex()
        self._counter = itertools.count(1)

    def __call__(self) -> str:
        return f"{self._prefix}{next(self._counter):016x}"


class Connection:
    """One keep-alive HTTP/1.1 connection that logs every call."""

    def __init__(self, port: int, calls: List[Call], ids: RequestIds) -> None:
        self.port = port
        self.calls = calls
        self.ids = ids
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "Connection":
        self._reader, self._writer = await asyncio.open_connection("127.0.0.1", self.port)
        return self

    async def __aexit__(self, *exc_info) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def call(
        self, kind: str, session: int, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, Any]:
        """Send one request; returns ``(status, decoded JSON or None)``.

        A transport error or timeout is logged as a failed call and
        re-raised: the connection is then unusable.
        """
        request_id = self.ids()
        encoded = json.dumps(body).encode("utf-8") if body is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Length: {len(encoded)}\r\nContent-Type: application/json\r\n"
            f"X-Request-Id: {request_id}\r\nX-Tenant: user-{session % USERS}\r\n\r\n"
        ).encode("latin-1")
        start = time.perf_counter()
        try:
            status, payload = await asyncio.wait_for(self._exchange(head + encoded), TIMEOUT_S)
        except BaseException:
            self.calls.append(Call(kind, session, request_id, time.perf_counter() - start, False))
            raise
        latency = time.perf_counter() - start
        self.calls.append(Call(kind, session, request_id, latency, 200 <= status < 300))
        return status, payload

    async def _exchange(self, request: bytes) -> Tuple[int, Any]:
        assert self._reader is not None and self._writer is not None
        self._writer.write(request)
        await self._writer.drain()
        status = int((await self._reader.readline()).split()[1])
        length = 0
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value.strip())
        raw = await self._reader.readexactly(length) if length else b""
        return status, (json.loads(raw) if raw else None)


def page_record(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The parts of a page the correctness gate compares."""
    return {
        "ids": payload["ids"],
        "distances": payload["distances"],
        "level": payload["quality"]["level"],
    }


class SessionFailed(Exception):
    """A non-2xx response ended a session early."""


class HttpApi:
    """The session API over one logged connection."""

    def __init__(self, conn: Connection, session: int) -> None:
        self.conn = conn
        self.session = session

    async def _expect(self, kind: str, method: str, path: str, body=None):
        status, payload = await self.conn.call(kind, self.session, method, path, body)
        if not 200 <= status < 300:
            raise SessionFailed(f"{method} {path}: {status} {payload}")
        return payload

    async def create(self, row: int) -> str:
        return (await self._expect("create", "POST", "/sessions", {"query": row}))["session_id"]

    async def page(self, sid: str, approximate: bool = False) -> Dict[str, Any]:
        suffix = "&approximate=1" if approximate else ""
        return page_record(await self._expect("page", "GET", f"/sessions/{sid}/page?k={K}{suffix}"))

    async def feedback(self, sid, relevant, scores, approximate=False) -> Dict[str, Any]:
        body = {"relevant_ids": relevant, "scores": scores, "k": K}
        if approximate:
            body["approximate"] = True
        return page_record(await self._expect("round", "POST", f"/sessions/{sid}/feedback", body))

    async def close(self, sid: str) -> None:
        await self._expect("delete", "DELETE", f"/sessions/{sid}")


class ServiceApi:
    """The same session API called in-process (the serial replay)."""

    def __init__(self, service) -> None:
        self.service = service

    @staticmethod
    def _record(page) -> Dict[str, Any]:
        return {
            "ids": [int(i) for i in page.ids],
            "distances": [float(d) for d in page.distances],
            "level": page.quality.level,
        }

    async def create(self, row: int) -> str:
        return self.service.create_session(row)

    async def page(self, sid: str, approximate: bool = False) -> Dict[str, Any]:
        return self._record(self.service.query(sid, K, approximate=approximate))

    async def feedback(self, sid, relevant, scores, approximate=False) -> Dict[str, Any]:
        return self._record(
            self.service.feedback(sid, relevant, scores, K, approximate=approximate)
        )

    async def close(self, sid: str) -> None:
        self.service.close(sid)


async def run_session(api, workload: Workload, database, log: SessionLog, on_first_page=None):
    """One simulated user's session, as the workload shapes it.

    Default shape: create → ``GET page`` → ``ROUNDS`` × (judge →
    ``POST feedback``) → ``DELETE``.  ``browse_ann``: the first page and
    every feedback round are approximate, and each round is followed by
    ``REREADS`` exact ``GET page`` of the same cluster state.
    """
    sid = await api.create(log.query_row)
    page = await api.page(sid, approximate=workload.browse)
    log.pages.append(page)
    if on_first_page is not None:
        on_first_page()
    for _ in range(ROUNDS):
        relevant, scores = judge(database, log.query_row, page["ids"])
        page = await api.feedback(sid, relevant, scores, approximate=workload.browse)
        log.pages.append(page)
        if workload.browse:
            approximate = page["ids"]
            for _ in range(REREADS):
                page = await api.page(sid)
                log.pages.append(page)
            log.recalls.append(recall(approximate, page["ids"]))
    await api.close(sid)
    log.completed = True


@dataclass
class Phase:
    """The outcome of one closed-loop phase."""

    calls: List[Call]
    sessions: List[SessionLog]
    wall_s: float
    errors: List[str]


def closed_loop(
    port: int,
    workload: Workload,
    database,
    sessions: Iterator[Tuple[int, int]],
    ids: RequestIds,
    *,
    seconds: Optional[float] = None,
) -> Phase:
    """Run sessions from ``sessions`` on :data:`USERS` connections.

    With ``seconds``, users stop starting sessions once that long has
    passed (a started session always finishes); without, they drain the
    iterator.
    """
    calls: List[Call] = []
    logs: List[SessionLog] = []
    errors: List[str] = []

    async def user() -> None:
        async with Connection(port, calls, ids) as conn:
            while seconds is None or time.perf_counter() < deadline:
                try:
                    index, row = next(sessions)
                except StopIteration:
                    return
                log = SessionLog(index, row)
                logs.append(log)
                try:
                    await run_session(HttpApi(conn, index), workload, database, log)
                except SessionFailed as error:
                    errors.append(str(error))
                except (OSError, EOFError, asyncio.TimeoutError, ValueError) as error:
                    # The connection is unusable; the call is logged failed.
                    errors.append(f"{type(error).__name__}: {error}")
                    return

    async def drive() -> None:
        await asyncio.gather(*(user() for _ in range(USERS)))

    start = time.perf_counter()
    deadline = start + (seconds or 0.0)
    asyncio.run(drive())
    wall = time.perf_counter() - start
    logs.sort(key=lambda log: log.index)
    return Phase(calls, logs, wall, errors)


def warm_up(server: "ServerProcess", workload: Workload, database, row: int, ids) -> float:
    """Run one untimed session; returns seconds from launch to its first page."""
    first: List[float] = []

    async def session() -> None:
        async with Connection(server.port, [], ids) as conn:
            await run_session(
                HttpApi(conn, -1),
                workload,
                database,
                SessionLog(-1, row),
                on_first_page=lambda: first.append(time.perf_counter()),
            )

    asyncio.run(session())
    return first[0] - server.started


def fetch_stats(port: int, ids: RequestIds) -> Dict[str, Any]:
    """The server's ``/stats`` snapshot."""
    calls: List[Call] = []

    async def get() -> Any:
        async with Connection(port, calls, ids) as conn:
            status, payload = await conn.call("stats", -1, "GET", "/stats")
            if status != 200:
                raise RuntimeError(f"/stats answered {status}")
            return payload

    return asyncio.run(get())


class ServerProcess:
    """``serve.py`` as a child process, launched and stopped by the bench."""

    def __init__(self, workload: Workload, input_path: Path, trace_out: Optional[Path] = None):
        command = [
            sys.executable,
            str(BENCH_DIR / "serve.py"),
            "--workload",
            workload.name,
            "--input",
            str(input_path),
        ]
        if trace_out is not None:
            command += ["--trace-out", str(trace_out)]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR), str(BENCH_DIR)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.started = time.perf_counter()
        # A session of its own, so kill() can take the shard workers too.
        self.process = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
            start_new_session=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=TIMEOUT_S)
            raise RuntimeError(f"{workload.name} server exited with {self.process.returncode}")
        self.port = int(json.loads(line)["port"])

    def stop(self) -> Dict[str, Any]:
        """Stop the server; returns its ``{peak_rss_kb, rss_kb}`` report."""
        try:
            output, _ = self.process.communicate("stop\n", timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with {self.process.returncode}")
        return json.loads(output.strip().splitlines()[-1])

    def kill(self) -> None:
        """Kill the server and its workers unless :meth:`stop` already ended it."""
        if self.process.poll() is None:
            os.killpg(self.process.pid, signal.SIGKILL)
        self.process.wait()
