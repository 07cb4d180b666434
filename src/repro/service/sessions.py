"""Thread-safe session store with TTL/LRU eviction and checkpoints.

Relevance feedback is stateful by construction: the whole point of the
paper's loop is per-user cluster state carried across rounds.  A
service therefore needs a place where many concurrent
:class:`~repro.core.qcluster.QclusterEngine`-backed sessions live,
bounded in memory, without ever *losing* a user's accumulated feedback.

:class:`SessionStore` provides that:

* sessions are keyed by id and handed out through :meth:`lease`, which
  pins the session (so the evictor skips it) and holds its per-session
  lock for the duration of the request — distinct sessions proceed in
  parallel, operations on one session serialize;
* capacity overflow evicts the least recently used unpinned session and
  idle sessions past their TTL are evicted on the next store operation;
* eviction is not deletion: the engine state is checkpointed through
  :mod:`repro.extensions.persistence` (to ``checkpoint_dir`` when
  given, else to an in-memory archive) and transparently restored on
  the next lease, so an evicted session resumes exactly where it left
  off — and with a ``checkpoint_dir`` it survives a process restart.

Sessions whose feedback method does not expose a checkpointable
``QclusterEngine`` (e.g. the baselines) are still stored and served;
they are simply dropped on eviction, counted as ``sessions_lost``.

Checkpoint files are written in a CRC-validated two-part format
(header line with a ``zlib.crc32`` of the payload plus the session's
*genesis* query, then the engine-state payload).  A damaged file never
surfaces as a raw ``json.JSONDecodeError``: restore quarantines it
(renamed ``<id>.json.corrupt`` for forensics) and either *rebuilds* a
fresh session from the still-readable genesis record — marked
``checkpoint_rebuilt`` on every subsequent response — or, when nothing
is salvageable, raises the typed :class:`CheckpointCorruption` so the
id becomes free for a clean re-create; so does a file that parses but
cannot rebuild a finite session of the served dimension.  Checkpoint
reads retry
transient errors with bounded backoff; a failed checkpoint *write*
falls back to the in-memory archive instead of losing feedback state.
"""

from __future__ import annotations

import json
import threading
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

import numpy as np

from ..core.qcluster import QclusterEngine
from ..extensions.persistence import engine_from_dict, engine_to_dict
from ..faults import fault_point, register_site
from ..obs import add_event
from ..retrieval.methods import FeedbackMethod, QclusterMethod, QueryLike
from .degrade import SessionGuard
from .metrics import ServiceMetrics
from .resilience import RetryPolicy, retry_call

__all__ = [
    "SessionNotFound",
    "CheckpointCorruption",
    "ManagedSession",
    "SessionStore",
]

#: Checkpoint format written by this store (1 = legacy plain JSON).
CHECKPOINT_FORMAT = 2

_SITE_CHECKPOINT_SAVE = register_site(
    "checkpoint.save", "serialized checkpoint text on its way to disk"
)
_SITE_CHECKPOINT_RESTORE = register_site(
    "checkpoint.restore", "checkpoint file read during session restore"
)


class SessionNotFound(KeyError):
    """The session id is unknown, expired without a checkpoint, or closed."""


class CheckpointCorruption(SessionNotFound):
    """A checkpoint failed CRC or parse validation and was quarantined.

    Subclasses :class:`SessionNotFound` on purpose: callers that treat
    a missing session as "create a fresh one" keep working unchanged —
    the id is free again, because the damaged file was renamed to
    ``<id>.json.corrupt`` before this was raised.
    """

    def __init__(self, session_id: str, detail: str) -> None:
        self.session_id = session_id
        self.detail = detail
        super().__init__(f"{session_id}: corrupt checkpoint ({detail})")


@dataclass
class ManagedSession:
    """One live feedback session plus its service bookkeeping.

    Attributes:
        session_id: the store key.
        method: the feedback strategy owning the engine state.
        query: the current :class:`~repro.retrieval.methods.QueryLike`.
        iteration: feedback rounds completed (0 = initial query).
        searcher: per-session index searcher (node cache), if any.
        guard: degradation state machine, attached by the service.
        genesis: the session's initial query vector; duplicated into
            the checkpoint header so a corrupt payload can still be
            rebuilt into a fresh session instead of a dead id.
        provenance: sticky degradation reasons (``"checkpoint_rebuilt"``
            after a rebuild; the service adds scan-level reasons) —
            folded into every response's
            :class:`~repro.system.ResultQuality`.
        pending_reasons: reasons from degraded pages served since the
            last feedback round; promoted into :attr:`provenance` the
            moment the user judges one of those pages (and folded into
            checkpoints conservatively, since an evicted session cannot
            tell which page its eventual feedback judged).
        lock: serializes all operations on this session.
        pins: active leases; a pinned session is never evicted.
        last_access: store clock at the most recent lease.
        created: store clock at insertion.
    """

    session_id: str
    method: FeedbackMethod
    query: QueryLike
    iteration: int = 0
    searcher: Optional[object] = None
    guard: Optional[SessionGuard] = None
    genesis: Optional[np.ndarray] = None
    provenance: Tuple[str, ...] = ()
    pending_reasons: Tuple[str, ...] = ()
    lock: threading.RLock = field(default_factory=threading.RLock)
    pins: int = 0
    last_access: float = 0.0
    created: float = 0.0


class SessionStore:
    """Bounded, thread-safe home for many concurrent feedback sessions.

    Args:
        capacity: maximum number of *live* (in-memory) sessions; the
            least recently used unpinned session is evicted past this.
        ttl_seconds: idle time after which a session is evicted on the
            next store operation; ``None`` disables TTL eviction.
        checkpoint_dir: directory for eviction checkpoints.  When given,
            checkpoints are JSON files named ``<session_id>.json`` and
            restorable by a *new* store instance (process restart);
            when ``None`` an in-memory archive is used instead.
        method_factory: builds the method shell a checkpoint is
            restored into (its engine is then replaced wholesale).
        metrics: eviction/restore counters land here when provided.
        clock: monotonic time source (injectable for tests).
        retry: backoff policy for transient checkpoint-read errors
            (reads are idempotent; the default makes three attempts).
        dimension: feature dimensionality of the served collection; a
            checkpoint whose queries differ is corrupt (``None``: any).
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl_seconds: Optional[float] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        method_factory: Callable[[], FeedbackMethod] = QclusterMethod,
        metrics: Optional[ServiceMetrics] = None,
        clock: Callable[[], float] = time.monotonic,
        retry: Optional[RetryPolicy] = None,
        dimension: Optional[int] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be positive, got {ttl_seconds}")
        self.capacity = capacity
        self.ttl_seconds = ttl_seconds
        self.checkpoint_dir = Path(checkpoint_dir) if checkpoint_dir else None
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._method_factory = method_factory
        self._metrics = metrics if metrics is not None else ServiceMetrics()
        self._clock = clock
        self.retry = retry if retry is not None else RetryPolicy(base_delay_s=0.01)
        self.dimension = dimension
        self._lock = threading.RLock()
        self._live: Dict[str, ManagedSession] = {}
        self._archive: Dict[str, Optional[dict]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._live)

    def __contains__(self, session_id: str) -> bool:
        with self._lock:
            return (
                session_id in self._live
                or session_id in self._archive
                or self._checkpoint_path(session_id) is not None
            )

    @property
    def live_ids(self) -> List[str]:
        """Ids of sessions currently resident in memory."""
        with self._lock:
            return list(self._live)

    @property
    def archived_ids(self) -> List[str]:
        """Ids of evicted sessions restorable from their checkpoint."""
        with self._lock:
            ids = {
                session_id
                for session_id, state in self._archive.items()
                if state is not None
            }
            if self.checkpoint_dir is not None:
                ids.update(path.stem for path in self.checkpoint_dir.glob("*.json"))
            return sorted(ids - set(self._live))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def put(self, session: ManagedSession) -> None:
        """Insert a freshly created session (evicting LRU on overflow)."""
        with self._lock:
            now = self._clock()
            session.created = now
            session.last_access = now
            self._live[session.session_id] = session
            self._archive.pop(session.session_id, None)
            self._sweep_expired()
            self._enforce_capacity()

    @contextmanager
    def lease(self, session_id: str) -> Iterator[ManagedSession]:
        """Borrow a session for one request.

        Restores from checkpoint when the session was evicted, pins it
        against eviction, and holds its per-session lock for the body.

        Raises:
            SessionNotFound: unknown id, or evicted without a
                checkpoint, or closed.
        """
        with self._lock:
            self._sweep_expired()
            session = self._live.get(session_id)
            if session is None:
                session = self._restore(session_id)
            # Pin BEFORE enforcing capacity: a freshly restored session
            # must not be chosen as its own eviction victim, or the
            # caller would mutate an orphaned object while the archive
            # keeps the stale checkpoint (a lost update).
            session.pins += 1
            session.last_access = self._clock()
            self._enforce_capacity()
        try:
            with session.lock:
                yield session
        finally:
            with self._lock:
                session.pins -= 1
                session.last_access = self._clock()

    def remove(self, session_id: str) -> bool:
        """Delete a session and its checkpoint; True if anything existed."""
        with self._lock:
            existed = self._live.pop(session_id, None) is not None
            existed = (self._archive.pop(session_id, None) is not None) or existed
            path = self._checkpoint_path(session_id)
            if path is not None:
                path.unlink()
                existed = True
            return existed

    def sweep(self) -> int:
        """Evict every idle-past-TTL session now; returns how many."""
        with self._lock:
            return self._sweep_expired()

    # ------------------------------------------------------------------
    # Eviction and checkpointing
    # ------------------------------------------------------------------

    def checkpoint_state(self, session: ManagedSession) -> Optional[dict]:
        """JSON-compatible snapshot of a session, or ``None``.

        Only methods carrying a :class:`QclusterEngine` (the service
        default) are checkpointable; everything the ranking depends on
        — cluster means, covariances, relevance masses, dedup state —
        round-trips through :mod:`repro.extensions.persistence`.
        """
        engine = getattr(session.method, "engine", None)
        if not isinstance(engine, QclusterEngine):
            return None
        genesis = session.genesis
        return {
            "engine": engine_to_dict(engine),
            "iteration": session.iteration,
            "genesis": None if genesis is None else [float(x) for x in genesis],
            # Pending (not yet judged) reasons are folded in: after a
            # round trip through eviction the session cannot tell which
            # page the user's eventual feedback judged, so it marks
            # itself conservatively.
            "provenance": list(
                dict.fromkeys(session.provenance + session.pending_reasons)
            ),
        }

    @staticmethod
    def encode_checkpoint(session_id: str, state: dict) -> str:
        """Serialize ``state`` in the CRC-validated two-part format.

        Line 1 is a small header carrying the payload's ``zlib.crc32``
        and length plus the genesis query; line 2 is the engine-state
        payload.  A torn (tail-truncated) write therefore loses the
        payload but keeps the header readable — exactly the record the
        rebuild path needs.
        """
        payload = json.dumps(state)
        header = json.dumps(
            {
                "format": CHECKPOINT_FORMAT,
                "session_id": session_id,
                "iteration": state.get("iteration", 0),
                "genesis": state.get("genesis"),
                "provenance": state.get("provenance", []),
                "payload_crc32": zlib.crc32(payload.encode("utf-8")),
                "payload_len": len(payload),
            }
        )
        return header + "\n" + payload

    @staticmethod
    def decode_checkpoint(session_id: str, text: str) -> Tuple[str, dict]:
        """Validate and parse checkpoint ``text``.

        Returns:
            ``("full", state)`` when the payload passed CRC and parse
            validation (also accepts the legacy format-1 single-line
            JSON, which predates checksums); ``("genesis", header)``
            when the payload is damaged but the header's genesis record
            survives — the rebuild signal.

        Raises:
            CheckpointCorruption: nothing in the file is salvageable.
        """
        head, newline, payload = text.partition("\n")
        try:
            header = json.loads(head)
        except json.JSONDecodeError:
            raise CheckpointCorruption(session_id, "unparseable header") from None
        if not isinstance(header, dict):
            raise CheckpointCorruption(session_id, f"header is {type(header).__name__}")
        if header.get("format") != CHECKPOINT_FORMAT:
            # Legacy format 1: the whole text is the state dict, no CRC.
            if "engine" in header:
                return "full", header
            raise CheckpointCorruption(session_id, "unknown checkpoint format")
        intact = (
            bool(newline)
            and len(payload) == header.get("payload_len")
            and zlib.crc32(payload.encode("utf-8")) == header.get("payload_crc32")
        )
        if intact:
            try:
                state = json.loads(payload)
            except json.JSONDecodeError:
                intact = False
            else:
                return "full", state
        if header.get("genesis") is not None:
            return "genesis", header
        raise CheckpointCorruption(session_id, "payload damaged, no genesis record")

    def _evict(self, session: ManagedSession, reason: str) -> None:
        state = self.checkpoint_state(session)
        del self._live[session.session_id]
        if state is None:
            self._archive[session.session_id] = None
            self._metrics.increment("sessions_lost")
        elif self.checkpoint_dir is not None:
            try:
                text = self.encode_checkpoint(session.session_id, state)
                text = fault_point(
                    _SITE_CHECKPOINT_SAVE, key=session.session_id, payload=text
                )
                path = self.checkpoint_dir / f"{session.session_id}.json"
                path.write_text(text)
            except Exception:
                # A failed durable write must not lose feedback state:
                # degrade to the in-memory archive and say so.
                self._archive[session.session_id] = state
                self._metrics.increment("checkpoint_save_errors")
                add_event("checkpoint_save_failed", session_id=session.session_id)
        else:
            self._archive[session.session_id] = state
        self._metrics.increment("sessions_evicted")
        self._metrics.increment(f"sessions_evicted_{reason}")

    def _enforce_capacity(self) -> None:
        while len(self._live) > self.capacity:
            victims = sorted(
                (s for s in self._live.values() if s.pins == 0),
                key=lambda s: s.last_access,
            )
            if not victims:
                return  # everything is pinned; allow temporary overshoot
            self._evict(victims[0], reason="capacity")

    def _sweep_expired(self) -> int:
        if self.ttl_seconds is None:
            return 0
        cutoff = self._clock() - self.ttl_seconds
        expired = [
            s for s in self._live.values() if s.pins == 0 and s.last_access < cutoff
        ]
        for session in expired:
            self._evict(session, reason="ttl")
        return len(expired)

    def _checkpoint_path(self, session_id: str) -> Optional[Path]:
        if self.checkpoint_dir is None:
            return None
        path = self.checkpoint_dir / f"{session_id}.json"
        return path if path.exists() else None

    def _quarantine(self, path: Path, session_id: str, action: str) -> None:
        """Move a damaged checkpoint aside (``<id>.json.corrupt``).

        The original name is freed — the id can be re-created cleanly —
        while the damaged bytes stay on disk for forensics.
        """
        try:
            path.replace(path.with_name(path.name + ".corrupt"))
        except OSError:
            path.unlink(missing_ok=True)
        self._metrics.increment("checkpoints_corrupt")
        self._metrics.increment("checkpoints_quarantined")
        add_event("checkpoint_corruption", session_id=session_id, action=action)

    def _read_checkpoint(self, path: Path, session_id: str) -> str:
        """Read the checkpoint file, retrying transient errors."""

        def read() -> str:
            fault_point(_SITE_CHECKPOINT_RESTORE, key=session_id)
            return path.read_text()

        def on_retry(attempt: int, error: BaseException) -> None:
            self._metrics.increment("restore_retries")
            add_event(
                "retry", stage="checkpoint_restore", attempt=attempt, error=repr(error)
            )

        return retry_call(read, self.retry, on_retry=on_retry)

    def _rebuild_from_genesis(self, session_id: str, header: dict) -> ManagedSession:
        """Fresh session from the checkpoint header's genesis query.

        Accumulated feedback is gone — the session restarts at
        iteration 0 and carries the sticky ``checkpoint_rebuilt``
        provenance so every subsequent response is explicitly degraded.
        """
        genesis = np.asarray(header["genesis"], dtype=float)
        method = self._method_factory()
        session = ManagedSession(
            session_id=session_id,
            method=method,
            query=method.start(genesis),
            iteration=0,
            genesis=genesis,
            provenance=("checkpoint_rebuilt",),
        )
        self._metrics.increment("sessions_rebuilt")
        return session

    def _restore(self, session_id: str) -> ManagedSession:
        if session_id in self._archive:
            state = self._archive.pop(session_id)
            if state is None:
                raise SessionNotFound(
                    f"{session_id}: evicted without a checkpoint "
                    "(its feedback method is not persistable)"
                )
            session = self._session_from_state(session_id, state)
        else:
            path = self._checkpoint_path(session_id)
            if path is None:
                raise SessionNotFound(session_id)
            text = self._read_checkpoint(path, session_id)
            try:
                mode, state = self.decode_checkpoint(session_id, text)
                if mode == "genesis":
                    session = self._rebuild_from_genesis(session_id, state)
                else:
                    session = self._session_from_state(session_id, state)
                self._check_servable(session)
            except CheckpointCorruption:
                self._quarantine(path, session_id, action="quarantined")
                raise
            except SessionNotFound:
                raise
            except Exception as error:
                # Untrusted bytes that parsed but cannot rebuild a
                # servable session: corruption, not a failed request.
                self._quarantine(path, session_id, action="quarantined")
                raise CheckpointCorruption(
                    session_id, f"unrestorable state ({type(error).__name__}: {error})"
                ) from None
            if mode == "genesis":
                self._quarantine(path, session_id, action="rebuilt")
            else:
                path.unlink()
        now = self._clock()
        session.created = now
        session.last_access = now
        self._live[session_id] = session
        self._metrics.increment("sessions_restored")
        return session

    def _session_from_state(self, session_id: str, state: dict) -> ManagedSession:
        """Rehydrate a full (CRC-valid or in-memory) checkpoint state."""
        engine = engine_from_dict(state["engine"])
        method = self._method_factory()
        if not hasattr(method, "engine"):
            raise SessionNotFound(
                f"{session_id}: checkpoint exists but method factory "
                f"{self._method_factory!r} cannot host a restored engine"
            )
        method.engine = engine
        if hasattr(method, "config"):
            method.config = engine.config
        genesis = state.get("genesis")
        provenance = state.get("provenance", [])
        if not all(isinstance(reason, str) for reason in provenance):
            raise ValueError("provenance must be strings")
        return ManagedSession(
            session_id=session_id,
            method=method,
            query=engine.current_query(),
            iteration=int(state["iteration"]),
            genesis=None if genesis is None else self._vector(genesis),
            provenance=tuple(provenance),
        )

    def _vector(self, values) -> np.ndarray:
        """``values`` as a finite vector of the served dimension, else
        ``ValueError`` (a NaN query ranks nothing)."""
        vector = np.asarray(values, dtype=float)
        if vector.ndim != 1 or self.dimension not in (None, vector.shape[0]):
            raise ValueError(f"vector of shape {vector.shape}, serving {self.dimension}")
        if not np.all(np.isfinite(vector)):
            raise ValueError("vector is not finite")
        return vector

    def _check_servable(self, session: ManagedSession) -> None:
        """Raise ``ValueError`` unless every query point is finite and
        of the served dimension."""
        for point in getattr(session.query, "points", ()):
            self._vector(point.center)
            if not (np.all(np.isfinite(point.inverse)) and np.isfinite(point.weight)):
                raise ValueError("query point is not finite")
