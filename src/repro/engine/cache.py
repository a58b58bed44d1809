"""The engine's encoding cache.

Budget sweeps ask many queries whose encodings differ only in the
cardinality constraint.  The cache maps an :class:`EncodingKey` —
(network fingerprint, problem fingerprint, property, link modeling,
cardinality encoding) — to a live
:class:`~repro.core.incremental.IncrementalContext` holding the
budget-independent encoding, so budget-only queries never re-encode the
delivery model.  Entries own a full solver each, so the cache is a small
LRU rather than unbounded.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, NamedTuple, Optional

from ..core.incremental import IncrementalContext
from ..core.specs import Property
from ..obs.tracer import count as obs_count

__all__ = ["EncodingKey", "EncodingCache"]


class EncodingKey(NamedTuple):
    """What uniquely determines a budget-independent base encoding.

    There is no ``r`` slot: contexts gate the bad-data redundancy
    parameter per query with an assumption literal, so one encoding
    serves every ``r``.
    """

    network_fingerprint: str
    problem_fingerprint: str
    prop: Property
    model_links: bool
    card_encoding: str


class EncodingCache:
    """LRU cache of :class:`IncrementalContext` base encodings.

    All public operations are atomic under one re-entrant lock: the
    service layer shares a cache between its request threads, and an
    unlocked ``get_or_create`` racing ``invalidate_config`` is a
    check-then-act bug — the invalidation can run *between* a miss and
    its ``put``, silently resurrecting a context for a configuration
    the operator just declared stale.  ``get_or_create`` therefore
    holds the lock across the factory call too: an invalidation issued
    while an encode is in flight serializes after it and still wins.
    (Contexts are not safe for concurrent *use* anyway — each owns a
    solver — so serializing creation costs the service nothing.)
    """

    def __init__(self, maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._lock = threading.RLock()
        self._entries: "OrderedDict[EncodingKey, IncrementalContext]" = \
            OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> "list[EncodingKey]":
        """The cached keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def get(self, key: EncodingKey) -> Optional[IncrementalContext]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                obs_count("cache.hits")
            else:
                self.misses += 1
                obs_count("cache.misses")
            return entry

    def put(self, key: EncodingKey, entry: IncrementalContext) -> None:
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1
                obs_count("cache.evictions")

    def get_or_create(
        self, key: EncodingKey,
        factory: Callable[[], IncrementalContext],
    ) -> IncrementalContext:
        with self._lock:
            entry = self.get(key)
            if entry is None:
                entry = factory()
                self.put(key, entry)
            return entry

    def invalidate(self, key: EncodingKey) -> bool:
        """Drop one entry (if present); True when something was removed.

        Callers use this to evict a *poisoned* context — one whose
        shared solver may hold partially-asserted state after a backend
        exception escaped mid-query.  A clean resource-limit outcome
        (UNKNOWN verdict, :exc:`~repro.sat.ResourceLimitReached`) does
        not poison a context and must not evict it: the solver unwinds
        cleanly on the way out and the cached base encoding — often
        seconds of encoding work — stays reusable.
        """
        with self._lock:
            return self._entries.pop(key, None) is not None

    def invalidate_config(self, network_fingerprint: str,
                          problem_fingerprint: str) -> int:
        """Drop every entry encoding one configuration.

        The service's session layer calls this when a session is
        explicitly invalidated (the operator knows the underlying grid
        changed): all warm contexts keyed on the configuration's
        fingerprints are released at once, whatever their property or
        cardinality encoding.  Returns the number of entries
        dropped.
        """
        with self._lock:
            doomed = [key for key in self._entries
                      if key.network_fingerprint == network_fingerprint
                      and key.problem_fingerprint == problem_fingerprint]
            for key in doomed:
                del self._entries[key]
            return len(doomed)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __repr__(self) -> str:
        return (f"EncodingCache(entries={len(self)}, hits={self.hits}, "
                f"misses={self.misses})")
