"""Streaming re-verification: events, deltas, and the live watcher.

The paper's verdict is a one-shot certificate; this package keeps it
continuously true.  A :class:`~repro.stream.emulator.ScenarioEmulator`
(or any external feed) produces timestamped
:class:`~repro.stream.events.StreamEvent` records for the five live
scenarios — device failure/recovery, link cuts, crypto downgrades,
IED compromise, cascading outages.  The
:class:`~repro.stream.delta.DeltaCompiler` folds each event into a
minimal :class:`~repro.stream.delta.LiveState` overlay and names the
properties it can affect, and the
:class:`~repro.stream.watcher.Watcher` re-verifies exactly those floor
cells on warm assumption-path engines, raising structured
:class:`~repro.stream.watcher.Alarm` records when resiliency drops
below the declared spec floor.

Entry points: ``repro emulate`` / ``repro watch`` on the CLI, and
``POST /watch`` / ``POST /events`` / ``GET /watch/{id}/alarms`` on the
service.  See ``docs/STREAMING.md``.
"""

from .delta import (
    DOWNGRADE_PROFILE,
    ConfigDelta,
    DeltaCompiler,
    LiveState,
)
from .emulator import ScenarioEmulator
from .events import (
    EVENT_SCHEMA_VERSION,
    SCENARIOS,
    EventKind,
    StreamError,
    StreamEvent,
    read_events,
    write_events,
)
from .watcher import Alarm, Watcher, WatchUpdate, batch_verdicts

__all__ = [
    "Alarm",
    "ConfigDelta",
    "DOWNGRADE_PROFILE",
    "DeltaCompiler",
    "EVENT_SCHEMA_VERSION",
    "EventKind",
    "LiveState",
    "SCENARIOS",
    "ScenarioEmulator",
    "StreamError",
    "StreamEvent",
    "WatchUpdate",
    "Watcher",
    "batch_verdicts",
    "read_events",
    "write_events",
]
