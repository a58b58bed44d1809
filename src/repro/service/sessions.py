"""The session layer: warm engine state keyed by config fingerprint.

A *session* is everything the engine accumulates for one SCADA
configuration that is worth keeping between requests: the lint verdict
(run once, at session creation), the shared
:class:`~repro.core.reference.ReferenceEvaluator`, and — through the
engine's :class:`~repro.engine.EncodingCache` — the warm
:class:`~repro.core.incremental.IncrementalContext`\\ s whose base
encodings and learned clauses make repeat traffic cheap.  Before the
service existed this state was constructed inline per CLI process and
thrown away on exit; here it is extracted into an LRU-managed pool the
daemon owns.

Sessions are keyed by a digest of the configuration's *semantic*
fingerprints (network + problem), so two clients POSTing
byte-different but semantically identical configs land on the same
warm session.  Every session engine runs on the ``assumption`` path.

Eviction drops a session *cleanly*: its engine's cache is cleared so
every warm context (each owning a full solver) is released in one step,
and in-flight jobs holding a reference to the session's engine finish
against their own reference — the LRU only forgets the *routing* entry.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..core.analyzer import ConfigurationLintError
from ..engine.engine import VerificationEngine
from ..scada.config_io import CaseConfig, ConfigError, parse_config
from .protocol import ServiceError

__all__ = ["Session", "SessionManager"]


@dataclass
class Session:
    """One configuration's warm verification state."""

    session_id: str
    config: CaseConfig
    engine: VerificationEngine
    network_fingerprint: str
    problem_fingerprint: str
    created: float
    last_used: float
    queries: int = 0

    def touch(self) -> None:
        self.last_used = time.monotonic()
        self.queries += 1

    def describe(self) -> Dict[str, Any]:
        # Lifetime solver-effort totals for this session's engine —
        # how the warm state earned its keep.  Tier keys are last-seen
        # gauges.
        solver = {
            key: (round(value, 4) if key == "check_time"
                  else int(value))
            for key, value in sorted(
                self.engine.cumulative_stats.items())
        }
        return {
            "session": self.session_id,
            "queries": self.queries,
            "devices": len(self.config.network.devices),
            "states": self.config.problem.num_states,
            "warm_contexts": len(self.engine.cache),
            "cache": {
                "hits": self.engine.cache.hits,
                "misses": self.engine.cache.misses,
            },
            "solver": solver,
            "age_s": round(time.monotonic() - self.created, 3),
            "idle_s": round(time.monotonic() - self.last_used, 3),
        }


class SessionManager:
    """LRU pool of warm sessions, safe to share across threads.

    ``maxsize`` bounds the number of *sessions*; each session engine
    holds at most one warm context (and so one live solver) per
    property and link-modeling choice.  Session creation (parse +
    lint + engine construction) happens on executor threads, so every
    public method takes the manager lock.
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.created = 0
        self.reused = 0
        self.evicted = 0
        self.invalidated = 0
        self._lock = threading.Lock()
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------

    def fingerprint(self, config: CaseConfig) -> Tuple[str, str, str]:
        """(session id, network fp, problem fp) for a configuration."""
        network_fp = config.network.fingerprint()
        problem_fp = config.problem.fingerprint()
        digest = hashlib.sha256()
        for part in (network_fp, problem_fp):
            digest.update(part.encode("utf-8"))
            digest.update(b"\0")
        return digest.hexdigest()[:16], network_fp, problem_fp

    def parse(self, config_text: str) -> CaseConfig:
        """Parse config text, mapping defects to client-visible errors."""
        try:
            # Lenient parse: structural defects reach the lint gate in
            # open(), which reports all of them at once.
            return parse_config(config_text, strict=False)
        except (ConfigError, ValueError) as exc:
            raise ServiceError(400, "bad-config", str(exc)) from None

    def open(self, config: CaseConfig,
             lint: bool = True) -> Tuple[Session, bool]:
        """The warm session for *config*, creating it if needed.

        Returns ``(session, created)``.  A create runs the lint gate
        (unless ``lint=False``) and may evict the least-recently-used
        session to stay within ``maxsize``.  Raises
        :class:`ServiceError` (422) when the configuration fails lint.
        """
        session_id, network_fp, problem_fp = self.fingerprint(config)
        with self._lock:
            session = self._sessions.get(session_id)
            if session is not None:
                self._sessions.move_to_end(session_id)
                session.last_used = time.monotonic()
                self.reused += 1
                return session, False
        # Engine construction (and lint) runs outside the lock: it can
        # take seconds on a large grid, and other requests must not
        # stall behind it.  A racing create of the same session is
        # resolved below — first insert wins, the loser's engine is
        # dropped before it ever solved anything.
        try:
            engine = VerificationEngine(
                config.network, config.problem, backend="assumption",
                lint=lint)
        except ConfigurationLintError as exc:
            raise ServiceError(
                422, "lint-failed",
                f"configuration fails lint: {exc}") from None
        except ValueError as exc:
            raise ServiceError(400, "bad-config", str(exc)) from None
        now = time.monotonic()
        session = Session(
            session_id=session_id, config=config, engine=engine,
            network_fingerprint=network_fp, problem_fingerprint=problem_fp,
            created=now, last_used=now)
        with self._lock:
            existing = self._sessions.get(session_id)
            if existing is not None:
                self._sessions.move_to_end(session_id)
                self.reused += 1
                return existing, False
            self._sessions[session_id] = session
            self.created += 1
            while len(self._sessions) > self.maxsize:
                _, victim = self._sessions.popitem(last=False)
                self._drop(victim)
                self.evicted += 1
            return session, True

    def get(self, session_id: str) -> Session:
        """The session by id; raises :class:`ServiceError` (404)."""
        with self._lock:
            session = self._sessions.get(session_id)
            if session is None:
                raise ServiceError(404, "no-such-session",
                                   f"unknown session {session_id!r} "
                                   f"(expired from the LRU, or never "
                                   f"created)")
            self._sessions.move_to_end(session_id)
            return session

    def invalidate(self, session_id: str) -> bool:
        """Explicitly drop one session and its warm contexts.

        The operator's signal that the underlying grid changed: the
        session engine's cache is cleared (releasing every warm
        solver) and the id forgotten, so the next request with the same
        configuration builds a fresh session.  True when something was
        dropped.
        """
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is None:
                return False
            self._drop(session)
            self.invalidated += 1
            return True

    def clear(self) -> None:
        with self._lock:
            for session in self._sessions.values():
                self._drop(session)
            self._sessions.clear()

    @staticmethod
    def _drop(session: Session) -> None:
        # Clearing the engine's cache releases every warm context
        # (each holding a full solver) in one step.  The engine object
        # itself may still be referenced by an in-flight job, which
        # finishes against its own reference and is then collected.
        session.engine.cache.clear()

    # ------------------------------------------------------------------

    def describe(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [session.describe()
                    for session in self._sessions.values()]

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "open": len(self._sessions),
                "created": self.created,
                "reused": self.reused,
                "evicted": self.evicted,
                "invalidated": self.invalidated,
            }
