"""The tracer: spans, events, and the per-process active tracer.

A :class:`Tracer` turns a run into a JSONL stream of *records* —
``meta`` (one header line), ``span`` (a named timed region with
attributes), ``event`` (a point-in-time observation), and one final
``metrics`` line holding the :class:`~repro.obs.metrics.MetricsRegistry`
snapshot.  The schema is specified (and validated) in
:mod:`repro.obs.schema`.

Instrumented code never takes a tracer parameter: it asks for the
per-process *active* tracer (:func:`current_tracer`) and does nothing
when none is installed, so the disabled path costs one ``None`` check.
The module-level helpers :func:`span`, :func:`event`, :func:`count`,
:func:`gauge`, and :func:`observe` package that check; ``span`` returns
a shared no-op span when tracing is off, so call sites can
unconditionally write ``with span("solve") as sp: sp.attrs[...] = ...``.

Sweep workers run in separate processes where the parent's tracer does
not exist.  They build an in-memory ``Tracer()`` (no sink), and its
:meth:`Tracer.export` — a plain dict of records plus a metrics
snapshot — is pickled back with the task result; the parent's
:meth:`Tracer.absorb` replays those records tagged with the worker's
pid, giving per-worker attribution in a single merged trace.

The verification service runs many jobs concurrently on *threads* of
one process, where a single process-wide tracer would interleave
unrelated requests.  :func:`thread_activate` installs a per-thread
override: :func:`current_tracer` consults the calling thread's override
first and falls back to the process-wide tracer, so single-threaded
consumers (the CLI, sweep workers) keep the exact old semantics while
each service worker thread traces its own job in isolation.
"""

from __future__ import annotations

import contextlib
import json
import os
import threading
import time
from types import TracebackType
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    TextIO,
    Type,
)

from ..sat.hooks import SolverHooks
from .metrics import MetricsRegistry
from .schema import TRACE_VERSION

__all__ = [
    "SolverProbe",
    "Span",
    "Tracer",
    "activate",
    "count",
    "current_tracer",
    "event",
    "gauge",
    "observe",
    "probe_for",
    "set_tracer",
    "span",
    "thread_activate",
]

#: Per-process active tracer; ``None`` means telemetry is off.
_ACTIVE: Optional["Tracer"] = None

#: Per-thread tracer override (see :func:`thread_activate`).  The
#: attribute is *absent* (not ``None``) when a thread has no override,
#: so a thread can explicitly override to ``None`` — isolating itself
#: from a process-wide tracer — and that is distinguishable from "no
#: override installed".
_THREAD = threading.local()

_NO_OVERRIDE = object()

#: Solver events (restarts, clause-DB reductions) recorded per trace
#: before further ones are only counted — a hard search can restart
#: thousands of times and the counters already carry the totals.
_SOLVER_EVENT_CAP = 10_000


def current_tracer() -> Optional["Tracer"]:
    """The active tracer of this thread, or ``None`` (telemetry off).

    A per-thread override installed with :func:`thread_activate` wins;
    otherwise the process-wide tracer set with :func:`set_tracer` /
    :func:`activate` applies.
    """
    override = getattr(_THREAD, "tracer", _NO_OVERRIDE)
    if override is not _NO_OVERRIDE:
        return override  # type: ignore[return-value]
    return _ACTIVE


def set_tracer(tracer: Optional["Tracer"]) -> Optional["Tracer"]:
    """Install *tracer* as the process-wide active tracer.

    Returns the previously active tracer so callers can restore it.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


@contextlib.contextmanager
def activate(tracer: Optional["Tracer"]) -> Iterator[Optional["Tracer"]]:
    """``with activate(tracer):`` — scoped :func:`set_tracer`."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


@contextlib.contextmanager
def thread_activate(
        tracer: Optional["Tracer"]) -> Iterator[Optional["Tracer"]]:
    """``with thread_activate(tracer):`` — scoped per-thread override.

    Only the calling thread sees *tracer*; every other thread keeps its
    own override or the process-wide tracer.  Passing ``None``
    explicitly *isolates* the thread from a process-wide tracer — the
    service's scheduler uses that to keep job telemetry out of an
    operator's CLI trace.  Nests correctly with itself and with
    :func:`activate`.
    """
    previous = getattr(_THREAD, "tracer", _NO_OVERRIDE)
    _THREAD.tracer = tracer
    try:
        yield tracer
    finally:
        if previous is _NO_OVERRIDE:
            del _THREAD.tracer
        else:
            _THREAD.tracer = previous


class Span:
    """A named timed region; records itself on ``__exit__``.

    Attributes set on :attr:`attrs` (including after entry) land in the
    record, so a span opened around a solve can note the verdict found
    inside it.
    """

    __slots__ = ("name", "attrs", "_tracer", "_start")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self.name = name
        self.attrs = attrs
        self._tracer = tracer
        self._start = 0.0

    def __enter__(self) -> "Span":
        self._start = self._tracer.clock()
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        duration = self._tracer.clock() - self._start
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer.record({
            "type": "span",
            "name": self.name,
            "t": self._tracer.rel(self._start),
            "dur": duration,
            "attrs": self.attrs,
        })


class _NullSpan:
    """The shared do-nothing span returned when tracing is off.

    Carries a throwaway ``attrs`` dict so instrumented code can assign
    result attributes unconditionally.
    """

    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: Dict[str, Any] = {}

    def __enter__(self) -> "_NullSpan":
        self.attrs.clear()
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects records and metrics; optionally streams JSONL to *sink*.

    With a ``sink`` every record is written (and flushed) as produced,
    so a crashed run still leaves a usable partial trace.  Without one
    the records buffer in memory — the worker-side mode, exported with
    :meth:`export` and shipped back through the process pool.
    """

    def __init__(self, sink: Optional[TextIO] = None, *,
                 meta: Optional[Mapping[str, Any]] = None) -> None:
        self.clock = time.perf_counter
        self.registry = MetricsRegistry()
        self.records: List[Dict[str, Any]] = []
        self._sink = sink
        self._t0 = self.clock()
        self._closed = False
        self._solver_event_budget = _SOLVER_EVENT_CAP
        header: Dict[str, Any] = {
            "type": "meta",
            "version": TRACE_VERSION,
            "pid": os.getpid(),
            "attrs": dict(meta or {}),
        }
        self.record(header)

    # ------------------------------------------------------------------

    def rel(self, absolute: float) -> float:
        """A clock reading relative to the tracer's start."""
        return absolute - self._t0

    def record(self, record: Dict[str, Any]) -> None:
        """Append one raw record (already schema-shaped)."""
        if self._closed:
            return
        self.records.append(record)
        if self._sink is not None:
            self._sink.write(json.dumps(record, default=str) + "\n")
            self._sink.flush()

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, dict(attrs))

    def event(self, name: str, **attrs: Any) -> None:
        if name.startswith("solver."):
            if self._solver_event_budget <= 0:
                self.registry.count("solver.events_dropped")
                return
            self._solver_event_budget -= 1
        self.record({
            "type": "event",
            "name": name,
            "t": self.rel(self.clock()),
            "attrs": attrs,
        })

    # -- metrics shortcuts ----------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.registry.count(name, n)

    def gauge(self, name: str, value: float) -> None:
        self.registry.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        self.registry.observe(name, value)

    # -- worker aggregation ---------------------------------------------

    def export(self) -> Dict[str, Any]:
        """Everything collected so far, as one picklable dict."""
        return {
            "records": [dict(r) for r in self.records],
            "metrics": self.registry.snapshot(),
        }

    def absorb(self, export: Mapping[str, Any],
               worker: Optional[int] = None) -> None:
        """Replay a worker tracer's :meth:`export` into this trace.

        Every replayed record gains a ``worker`` field (the worker's
        pid) unless it already carries one, and the worker's metrics
        merge into this registry.  The worker's ``meta`` header and any
        ``metrics`` record are dropped — the merged trace keeps exactly
        one of each (the parent's), and the worker's metrics arrive
        through the export's ``metrics`` snapshot instead.
        """
        records = export.get("records") or []
        assert isinstance(records, list)
        for original in records:
            record = dict(original)
            kind = record.get("type")
            if kind == "meta":
                if worker is None:
                    worker = record.get("pid")
                continue
            if kind == "metrics":
                continue
            if worker is not None:
                record.setdefault("worker", worker)
            self.record(record)
        metrics = export.get("metrics")
        if metrics:
            assert isinstance(metrics, Mapping)
            self.registry.merge(metrics)

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Write the final ``metrics`` record and stop recording.

        Idempotent; does not close the sink (the opener owns it).
        """
        if self._closed:
            return
        snapshot = self.registry.snapshot()
        self.record({"type": "metrics", **snapshot})
        self._closed = True

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type: Optional[Type[BaseException]],
                 exc: Optional[BaseException],
                 tb: Optional[TracebackType]) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Tracer(records={len(self.records)}, "
                f"sink={'file' if self._sink is not None else 'memory'})")


class SolverProbe:
    """The :class:`~repro.sat.hooks.SolverHooks` feeding a tracer.

    Per-conflict observations (LBD, conflict decision depth) go to
    histograms only — one Python call per conflict, no record each.
    Rare structural events (restarts, clause-DB reductions) are both
    counted and recorded as trace events, capped per trace.
    """

    __slots__ = ("_tracer",)

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def on_learned(self, lbd: int, size: int, level: int) -> None:
        tracer = self._tracer
        tracer.registry.observe("solver.lbd", lbd)
        tracer.registry.observe("solver.conflict_depth", level)

    def on_restart(self, restarts: int, conflicts: int) -> None:
        self._tracer.count("solver.restarts")
        self._tracer.event("solver.restart",
                           restarts=restarts, conflicts=conflicts)

    def on_reduce_db(self, before: int, after: int, conflicts: int) -> None:
        self._tracer.count("solver.db_reductions")
        self._tracer.event("solver.reduce_db", before=before,
                           after=after, conflicts=conflicts)

    def on_rescale(self) -> None:
        self._tracer.count("solver.activity_rescales")

    def on_arena_compact(self, live: int, reclaimed: int) -> None:
        tracer = self._tracer
        tracer.count("solver.arena.compactions")
        tracer.count("solver.arena.reclaimed_slots", reclaimed)
        tracer.event("solver.arena.compact", live=live,
                     reclaimed=reclaimed)

    def on_tiers(self, core: int, mid: int, local: int) -> None:
        # Gauges: retention per tier is a level, not a rate.
        registry = self._tracer.registry
        registry.gauge("solver.tier.core", core)
        registry.gauge("solver.tier.mid", mid)
        registry.gauge("solver.tier.local", local)


def probe_for(tracer: Optional[Tracer]) -> Optional[SolverHooks]:
    """A :class:`SolverProbe` for *tracer*, or ``None`` when off."""
    return SolverProbe(tracer) if tracer is not None else None


# ----------------------------------------------------------------------
# Module-level convenience: no-ops when no tracer is active.
# ----------------------------------------------------------------------

def span(name: str, **attrs: Any) -> Any:
    """A span on the active tracer, or the shared no-op span."""
    tracer = current_tracer()
    if tracer is None:
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def event(name: str, **attrs: Any) -> None:
    tracer = current_tracer()
    if tracer is not None:
        tracer.event(name, **attrs)


def count(name: str, n: int = 1) -> None:
    tracer = current_tracer()
    if tracer is not None:
        tracer.count(name, n)


def gauge(name: str, value: float) -> None:
    tracer = current_tracer()
    if tracer is not None:
        tracer.gauge(name, value)


def observe(name: str, value: float) -> None:
    tracer = current_tracer()
    if tracer is not None:
        tracer.observe(name, value)
