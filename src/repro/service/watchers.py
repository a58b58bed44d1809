"""Service-hosted watchers: streaming re-verification in the daemon.

A *watch* wraps one :class:`~repro.stream.watcher.Watcher` in the
service: clients attach a floor (``POST /watch``), feed it timestamped
events (``POST /watch/{id}/events``), and long-poll the structured
alarms (``GET /watch/{id}/alarms``) the watcher raises when resiliency
drops below the floor.  The :class:`WatcherManager` owns the pool —
bounded, id-addressed, safe under the daemon's single event loop.

Threading contract: all bookkeeping here runs on the event loop; the
actual solver work (watcher construction's baseline pass, and each
event's re-verification) runs on :class:`ExecutorBridge` worker
threads under a per-call :class:`~repro.obs.tracer.Tracer`.  Each
watch keeps a long-lived in-memory tracer of its own; per-call
telemetry is absorbed into it (one ``meta``, one ``metrics``, exactly
like a sweep worker's records), so ``GET /watch/{id}/trace`` serves a
schema-valid trace of the watch's whole life, and the ``stream.*``
counters also fold into the service registry behind ``/metrics``.

Ingest is serialized per watch with an :class:`asyncio.Lock` — events
mutate live solver state, so two batches must never interleave — while
different watches proceed in parallel on separate worker threads.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.specs import ResiliencySpec
from ..obs.metrics import MetricsRegistry
from ..obs.tracer import Tracer, thread_activate
from ..sat.limits import Limits
from ..scada.config_io import CaseConfig
from ..stream import Alarm, StreamError, StreamEvent, Watcher, WatchUpdate
from .executor import ExecutorBridge
from .protocol import ServiceError

__all__ = ["LiveWatch", "WatcherManager"]


class LiveWatch:
    """One hosted watcher plus its service-side bookkeeping."""

    def __init__(self, watch_id: str, watcher: Watcher, tenant: str,
                 session_id: Optional[str], tracer: Tracer) -> None:
        self.watch_id = watch_id
        self.watcher = watcher
        self.tenant = tenant
        self.session_id = session_id
        self.tracer = tracer
        self.created = time.monotonic()
        self.closed = False
        self.ingests = 0
        #: Serializes event batches — they mutate live solver state.
        self.lock = asyncio.Lock()
        # Long-poll wakeup: waiters grab the current event and wait on
        # it; each alarm-producing ingest sets-and-rotates it.
        self._changed = asyncio.Event()

    # -- long-poll plumbing ---------------------------------------------

    @property
    def changed(self) -> asyncio.Event:
        """The event the *next* alarm (or close) will set."""
        return self._changed

    def notify(self) -> None:
        stale, self._changed = self._changed, asyncio.Event()
        stale.set()

    def alarms_since(self, since: int) -> List[Alarm]:
        """Alarms with seq > *since* (alarm seqs start at 1)."""
        return [alarm for alarm in self.watcher.alarms
                if alarm.seq > since]

    # -- introspection --------------------------------------------------

    def trace_records(self) -> List[Dict[str, Any]]:
        """A complete, schema-valid trace (meta first, metrics last)."""
        return list(self.tracer.records) + [
            {"type": "metrics", **self.tracer.registry.snapshot()}]

    def describe(self) -> Dict[str, Any]:
        return {
            "watch": self.watch_id,
            "tenant": self.tenant,
            "session": self.session_id,
            "closed": self.closed,
            "ingests": self.ingests,
            "age_s": round(time.monotonic() - self.created, 3),
            **self.watcher.snapshot(),
        }


class WatcherManager:
    """The daemon's bounded pool of live watches."""

    def __init__(self, bridge: ExecutorBridge, registry: MetricsRegistry,
                 maxsize: int = 8) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be positive")
        self.bridge = bridge
        self.registry = registry
        self.maxsize = maxsize
        self.created = 0
        self.closed = 0
        self._watches: Dict[str, LiveWatch] = {}
        self._counter = 0

    def __len__(self) -> int:
        return len(self._watches)

    # -- traced bridge hops ---------------------------------------------

    async def _traced(self, watch_meta: Dict[str, Any],
                      fn: Callable[[], Any],
                      into: Optional[Tracer] = None) -> Any:
        """Run *fn* on a worker thread under a fresh tracer.

        The call's records and metrics are absorbed into the watch's
        long-lived tracer (when given) and the ``stream.*`` metrics
        additionally merge into the service registry, so they surface
        in ``/metrics`` alongside the job-layer counters.  Exceptions
        propagate to the caller *after* the telemetry is folded —
        a failed ingest keeps its evidence, like a failed job does.
        """
        tracer = Tracer(meta=watch_meta)

        def body() -> Tuple[Any, Optional[BaseException]]:
            try:
                with thread_activate(tracer):
                    return fn(), None
            except Exception as exc:  # noqa: BLE001 — refolded below
                return None, exc

        value, error = await self.bridge.run(body)
        tracer.close()
        if into is not None:
            into.absorb(tracer.export())
        self.registry.merge(tracer.registry.snapshot())
        if error is not None:
            raise error
        return value

    # -- lifecycle ------------------------------------------------------

    async def create(self, config: CaseConfig,
                     floors: Sequence[ResiliencySpec],
                     limits: Optional[Limits] = None,
                     tenant: str = "anonymous",
                     session_id: Optional[str] = None) -> LiveWatch:
        """Build a watcher (baseline pass included) and register it."""
        if len(self._watches) >= self.maxsize:
            raise ServiceError(
                429, "too-many-watchers",
                f"watch pool is full ({self.maxsize}); close one with "
                f"DELETE /watch/{{id}}")
        self._counter += 1
        watch_id = f"w{self._counter:06d}"
        meta = {"kind": "watch", "watch": watch_id, "tenant": tenant,
                "floors": [spec.describe() for spec in floors]}
        # The watch's long-lived tracer: the attach hop's baseline
        # spans land in it first, every ingest's records follow.
        tracer = Tracer(meta=dict(meta))
        try:
            watcher = await self._traced(
                dict(meta, step="attach"),
                lambda: Watcher(config, floors, limits=limits),
                into=tracer)
        except StreamError as exc:
            raise ServiceError(400, "bad-watch", str(exc)) from None
        except ValueError as exc:
            raise ServiceError(400, "bad-config", str(exc)) from None
        watch = LiveWatch(watch_id, watcher, tenant, session_id, tracer)
        self._watches[watch_id] = watch
        self.created += 1
        if watcher.alarms:
            watch.notify()
        return watch

    def get(self, watch_id: str) -> LiveWatch:
        watch = self._watches.get(watch_id)
        if watch is None:
            raise ServiceError(404, "no-such-watch",
                               f"unknown watch {watch_id!r} "
                               f"(closed, or never created)")
        return watch

    def close(self, watch_id: str) -> LiveWatch:
        """Detach the watch; its warm engines go with it."""
        watch = self.get(watch_id)
        del self._watches[watch_id]
        watch.closed = True
        self.closed += 1
        watch.notify()  # wake long-pollers so they see `closed`
        return watch

    def clear(self) -> None:
        for watch_id in list(self._watches):
            self.close(watch_id)

    # -- ingestion ------------------------------------------------------

    async def ingest(self, watch: LiveWatch,
                     events: Sequence[StreamEvent]) -> List[WatchUpdate]:
        """Apply an event batch in order; returns one update each."""
        if not events:
            raise ServiceError(400, "bad-events",
                               "'events' must be a non-empty list")
        async with watch.lock:
            if watch.closed:
                raise ServiceError(409, "watch-closed",
                                   f"watch {watch.watch_id} is closed")
            meta = {"kind": "watch-ingest", "watch": watch.watch_id,
                    "events": len(events)}

            def apply_all() -> List[WatchUpdate]:
                return [watch.watcher.apply(event) for event in events]

            try:
                updates = await self._traced(meta, apply_all,
                                             into=watch.tracer)
            except StreamError as exc:
                raise ServiceError(422, "bad-event", str(exc)) from None
            watch.ingests += 1
            if any(update.alarms for update in updates):
                watch.notify()
            return updates

    # -- introspection --------------------------------------------------

    def describe(self) -> List[Dict[str, Any]]:
        return [watch.describe() for watch in self._watches.values()]

    def stats(self) -> Dict[str, int]:
        watches = self._watches.values()
        return {
            "open": len(self._watches),
            "created": self.created,
            "closed": self.closed,
            "events": sum(w.watcher.events_seen for w in watches),
            "alarms": sum(len(w.watcher.alarms) for w in watches),
            "below_floor": sum(len(w.watcher.below_floor)
                               for w in watches),
        }
