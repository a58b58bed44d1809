"""The warm engine's encoding cache.

Budget sweeps ask many queries whose encodings differ only in the
cardinality constraint.  The cache maps an :class:`EncodingKey` —
(property, link modeling) — to a live
:class:`~repro.core.incremental.IncrementalContext` holding the
budget-independent encoding, so budget-only queries never re-encode the
delivery model.  Each engine owns its cache and encodes one
configuration, so the cache holds at most one context per property and
link-modeling choice and needs no eviction policy.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, NamedTuple

from ..core.incremental import IncrementalContext
from ..core.specs import Property
from ..obs.tracer import count as obs_count

__all__ = ["EncodingKey", "EncodingCache"]


class EncodingKey(NamedTuple):
    """What determines a budget-independent base encoding within one
    engine's configuration.

    There is no ``r`` slot: contexts gate the bad-data redundancy
    parameter per query with an assumption literal, so one encoding
    serves every ``r``.
    """

    prop: Property
    model_links: bool


class EncodingCache:
    """The :class:`IncrementalContext` base encodings of one engine.

    All public operations are atomic under one lock: the service layer
    shares a session's engine between its request threads.
    ``get_or_create`` holds the lock across the factory call, so a
    :meth:`clear` issued while an encode is in flight (a session being
    dropped) serializes after it and still wins instead of racing the
    insert.  (Contexts are not safe for concurrent *use* anyway — each
    owns a solver — so serializing creation costs the service nothing.)
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: Dict[EncodingKey, IncrementalContext] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get_or_create(
        self, key: EncodingKey,
        factory: Callable[[], IncrementalContext],
    ) -> IncrementalContext:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                obs_count("cache.hits")
                return entry
            self.misses += 1
            obs_count("cache.misses")
            entry = self._entries[key] = factory()
            return entry

    def invalidate(self, key: EncodingKey) -> bool:
        """Drop one entry (if present); True when something was removed.

        The engine uses this to evict a *poisoned* context — one whose
        shared solver may hold partially-asserted state after an
        exception escaped mid-query.  A clean resource-limit outcome
        (UNKNOWN verdict, :exc:`~repro.sat.ResourceLimitReached`) does
        not poison a context and must not evict it: the solver unwinds
        cleanly on the way out and the cached base encoding — often
        seconds of encoding work — stays reusable.
        """
        with self._lock:
            return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:
        return (f"EncodingCache(entries={len(self)}, hits={self.hits}, "
                f"misses={self.misses})")
