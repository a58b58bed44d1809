"""The watcher: continuous re-verification against a spec floor.

A :class:`Watcher` holds a declared floor — the list of
:class:`~repro.core.specs.ResiliencySpec` cells the live system must
keep satisfying — plus warm verification engines for every network
shape the stream has visited recently.  Each incoming event compiles
to a :class:`~repro.stream.delta.ConfigDelta`; only the floor cells
whose property is in the delta's affected set are re-verified (the
others *cannot* have changed — the replay-equivalence test enforces
that), and every verdict flip raises a structured :class:`Alarm`.

Warmth comes from two layers.  Engines run on the **assumption
path**, so within one network shape every (property, k, r) cell
shares a single persistent solver context addressed by selector
literals.  Across shapes, engines live in a small LRU keyed by the
network fingerprint — and because fingerprints ignore names, a
recovery that returns the system to a previously-seen shape lands on
that shape's warm engine (counted on ``stream.engine.hits``).

Telemetry: ``stream.*`` counters and the ``stream.reverify_ms``
histogram flow through the active tracer, so they surface in
``repro stats`` for traced CLI runs and in ``/metrics`` when the
service hosts the watcher.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.results import Status, VerificationResult
from ..core.specs import ResiliencySpec
from ..engine.engine import VerificationEngine
from ..obs import count, gauge, observe, span
from ..sat.limits import Limits
from ..scada.config_io import CaseConfig
from .delta import ConfigDelta, DeltaCompiler, LiveState
from .events import StreamError, StreamEvent

__all__ = ["Alarm", "WatchUpdate", "Watcher", "batch_verdicts"]


@dataclass(frozen=True)
class Alarm:
    """One verdict flip on a floor cell.

    ``kind`` is ``raised`` when the cell dropped below the floor
    (a threat within budget now exists), ``cleared`` when it returned
    to resilient, and ``unknown`` when a resource budget expired
    before the re-verification decided (certifying nothing).
    """

    seq: int
    event_seq: int
    time: float
    kind: str
    spec: str
    property: str
    status: str
    previous: Optional[str]
    threat: Optional[str] = None

    def describe(self) -> str:
        head = {"raised": "ALARM", "cleared": "clear",
                "unknown": "unknown"}.get(self.kind, self.kind)
        text = (f"[{head}] #{self.seq} event #{self.event_seq} "
                f"t={self.time:.2f}s {self.spec}: "
                f"{self.previous or 'unverified'} → {self.status}")
        if self.threat:
            text += f" ({self.threat})"
        return text

    def to_json(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "alarm": self.seq,
            "event": self.event_seq,
            "t": round(self.time, 6),
            "kind": self.kind,
            "spec": self.spec,
            "property": self.property,
            "status": self.status,
            "previous": self.previous,
        }
        if self.threat is not None:
            record["threat"] = self.threat
        return record


@dataclass
class WatchUpdate:
    """What one event did: the delta, the re-verified cells, alarms."""

    event: StreamEvent
    delta: ConfigDelta
    reverified: List[Tuple[ResiliencySpec, VerificationResult]] = \
        field(default_factory=list)
    skipped: List[ResiliencySpec] = field(default_factory=list)
    alarms: List[Alarm] = field(default_factory=list)
    latency_s: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "event": self.event.to_json(),
            "state": self.delta.after.to_json(),
            "changed": self.delta.changed,
            "affected": sorted(p.value for p in self.delta.affected),
            "reverified": [
                {"spec": spec.describe(), "status": result.status.value,
                 "solve_ms": round(result.total_time * 1000.0, 3)}
                for spec, result in self.reverified
            ],
            "skipped": [spec.describe() for spec in self.skipped],
            "alarms": [alarm.to_json() for alarm in self.alarms],
            "latency_ms": round(self.latency_s * 1000.0, 3),
        }


class Watcher:
    """Apply events to warm engines; alarm on floor violations."""

    def __init__(self, base: CaseConfig,
                 floors: Sequence[ResiliencySpec],
                 limits: Optional[Limits] = None,
                 engine_cache: int = 4) -> None:
        if not floors:
            raise StreamError("a watcher needs at least one floor spec")
        if engine_cache < 1:
            raise StreamError("engine_cache must be positive")
        self.compiler = DeltaCompiler(base)
        self.floors: List[ResiliencySpec] = list(dict.fromkeys(floors))
        self.limits = limits
        self.engine_cache = engine_cache
        self.state = LiveState()
        self._engines: "OrderedDict[str, VerificationEngine]" = \
            OrderedDict()
        self.verdicts: Dict[ResiliencySpec, VerificationResult] = {}
        self.alarms: List[Alarm] = []
        self.events_seen = 0
        self._alarm_seq = 0
        # Baseline pass: every floor cell is verified on the pristine
        # config so later events have a verdict to diff against.  A
        # floor already violated at attach time alarms immediately
        # (event_seq 0).
        engine = self._engine_for(base)
        for spec in self.floors:
            with span("stream.baseline", spec=spec.describe()):
                result = engine.verify(spec, limits=self.limits)
            self.verdicts[spec] = result
            if result.status is not Status.RESILIENT:
                self._alarm(0, 0.0, spec, result, previous=None)

    # -- engines --------------------------------------------------------

    def _engine_for(self, config: CaseConfig) -> VerificationEngine:
        fingerprint = config.network.fingerprint()
        engine = self._engines.get(fingerprint)
        if engine is not None:
            self._engines.move_to_end(fingerprint)
            count("stream.engine.hits")
            return engine
        count("stream.engine.misses")
        engine = VerificationEngine(
            config.network, config.problem, backend="assumption",
            lint=False)
        self._engines[fingerprint] = engine
        while len(self._engines) > self.engine_cache:
            self._engines.popitem(last=False)
            count("stream.engine.evictions")
        gauge("stream.engines.live", float(len(self._engines)))
        return engine

    # -- event ingestion ------------------------------------------------

    def apply(self, event: StreamEvent) -> WatchUpdate:
        """Fold one event in and re-verify the affected floor cells."""
        started = time.monotonic()
        delta = self.compiler.apply(self.state, event)
        self.state = delta.after
        self.events_seen += 1
        count("stream.events")
        update = WatchUpdate(event=event, delta=delta)
        if not delta.changed:
            count("stream.events.noop")
            update.skipped = list(self.floors)
            count("stream.reverify.skipped", len(update.skipped))
            update.latency_s = time.monotonic() - started
            return update
        config = self.compiler.materialize(self.state)
        engine = self._engine_for(config)
        for spec in self.floors:
            if spec.property not in delta.affected:
                update.skipped.append(spec)
                continue
            with span("stream.reverify", spec=spec.describe(),
                      event=event.seq):
                result = engine.verify(spec, limits=self.limits)
            count("stream.reverify")
            observe("stream.reverify_ms", result.total_time * 1000.0)
            previous = self.verdicts.get(spec)
            self.verdicts[spec] = result
            update.reverified.append((spec, result))
            if previous is None or previous.status is not result.status:
                alarm = self._alarm(
                    event.seq, event.time, spec, result,
                    previous=previous.status.value if previous else None)
                update.alarms.append(alarm)
        count("stream.reverify.skipped", len(update.skipped))
        update.latency_s = time.monotonic() - started
        observe("stream.event_ms", update.latency_s * 1000.0)
        return update

    def _alarm(self, event_seq: int, when: float, spec: ResiliencySpec,
               result: VerificationResult,
               previous: Optional[str]) -> Alarm:
        if result.status is Status.THREAT_FOUND:
            kind = "raised"
        elif result.status is Status.RESILIENT:
            kind = "cleared"
        else:
            kind = "unknown"
        self._alarm_seq += 1
        alarm = Alarm(
            seq=self._alarm_seq,
            event_seq=event_seq,
            time=when,
            kind=kind,
            spec=spec.describe(),
            property=spec.property.value,
            status=result.status.value,
            previous=previous,
            threat=(result.threat.describe()
                    if result.threat is not None else None),
        )
        self.alarms.append(alarm)
        count(f"stream.alarms.{kind}")
        return alarm

    # -- introspection --------------------------------------------------

    @property
    def below_floor(self) -> List[ResiliencySpec]:
        """Floor cells currently violated (threat within budget)."""
        return [spec for spec, result in self.verdicts.items()
                if result.status is Status.THREAT_FOUND]

    def snapshot(self) -> Dict[str, Any]:
        return {
            "state": self.state.to_json(),
            "events": self.events_seen,
            "floors": [spec.describe() for spec in self.floors],
            "verdicts": {spec.describe(): result.status.value
                         for spec, result in self.verdicts.items()},
            "below_floor": [spec.describe()
                            for spec in self.below_floor],
            "alarms": len(self.alarms),
            "engines": len(self._engines),
        }


def batch_verdicts(base: CaseConfig, state: LiveState,
                   floors: Sequence[ResiliencySpec],
                   limits: Optional[Limits] = None
                   ) -> Dict[ResiliencySpec, Status]:
    """From-scratch verdicts for *state* — the watcher's ground truth.

    Builds a cold engine on the fully materialized config and verifies
    every floor cell.  ``repro watch --selfcheck`` and the
    replay-equivalence test compare these against the watcher's
    incrementally-maintained verdicts after every event.
    """
    compiler = DeltaCompiler(base)
    config = compiler.materialize(state)
    engine = VerificationEngine(config.network, config.problem,
                                backend="fresh", lint=False)
    return {spec: engine.verify(spec, limits=limits).status
            for spec in floors}
