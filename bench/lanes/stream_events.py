"""stream_events: a watcher absorbing disturbance episodes, closed loop.

A :class:`~repro.stream.Watcher` with default settings holds three
floors (observability k=1, secured observability k=1, bad data (1, 1))
on the 118-bus case.  A unit of work is one cycle: every disturbance
episode of :func:`bench.inputs.stream_episodes` once, in a seeded order.
Most events move the system to a shape the watcher has not seen, each
costing ``DeltaCompiler.materialize``, an engine rebuild and the
re-verification of the affected floors; the rest land on a warm engine.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from repro.obs import Tracer, activate
from repro.stream import Watcher

from bench import harness, inputs, ledger
from bench.lanes import Context, layer_metrics, output, ratio

NAME = "stream_events"


def _label(state: Any) -> str:
    return "state:" + inputs.state_label(state)


def universe(profile: inputs.Profile) -> List[Tuple[str, Any]]:
    config = inputs.resolve("main", profile)
    episodes = inputs.stream_episodes(config, profile)
    return [(_label(state), spec)
            for state in inputs.stream_states(config, episodes)
            for spec in inputs.stream_floors()]


def plan(seed: int, profile: inputs.Profile) -> List[Dict[str, Any]]:
    from repro.stream import DeltaCompiler, LiveState

    config = inputs.resolve("main", profile)
    compiler = DeltaCompiler(config)
    state = LiveState()
    ops = []
    for event in inputs.stream_cycle(inputs.stream_episodes(config, profile),
                                     seed, 0):
        state = compiler.apply(state, event).after
        shaped = inputs.resolve(_label(state), profile)
        ops.append({"event": event.to_json(), "state": _label(state),
                    "cells": [inputs.config_key(shaped, spec)
                              for spec in inputs.stream_floors()]})
    return ops


def measure(ctx: Context) -> Dict[str, Any]:
    floors = inputs.stream_floors()

    def build() -> Tuple[Any, List[Any], Watcher]:
        config = inputs.main_case(ctx.profile)
        episodes = inputs.stream_episodes(config, ctx.profile)
        return config, episodes, Watcher(config, floors)

    (config, episodes, watcher), samples = harness.median_setup(build)
    seen: List[Tuple[str, str, Dict[str, Any]]] = []
    latencies: List[float] = []

    def cycle(index: int, watcher: Watcher,
              recorder: Any = None) -> None:
        for event in inputs.stream_cycle(episodes, ctx.seed, index):
            request = len(latencies)
            started = time.perf_counter()
            if recorder is None:
                watcher.apply(event)
            else:
                with recorder.op(request, event=event.seq):
                    watcher.apply(event)
            latencies.append(time.perf_counter() - started)
            where = f"cycle {index} event {event.seq} {event.kind.value}"
            seen.append((where, _label(watcher.state),
                         dict(watcher.verdicts)))

    if not ctx.trace:
        # Every cycle after the first starts from a freshly attached
        # watcher, as the first does; attaching is not an event.
        harness.run_units(
            lambda index: cycle(index, watcher if index == 0
                                else Watcher(config, floors)),
            ctx.seconds)
        return {"outputs": _outputs(ctx.profile, seen), "metrics": {
            "setup_s": harness.median(samples),
            "latency_p50_ms": harness.median(latencies) * 1000.0,
            "throughput_ops_s": len(latencies) / sum(latencies),
            "peak_rss_mb": harness.peak_rss_mb(),
        }}

    cycle(0, watcher)
    untraced = sum(latencies) / len(latencies)
    latencies.clear()
    recorder = ledger.Recorder()
    program = Tracer()
    restore = ledger.install(recorder)
    try:
        traced_watcher = Watcher(config, floors)
        recorder.enabled = True
        with activate(program):
            cycle(0, traced_watcher, recorder)
        recorder.enabled = False
    finally:
        restore()
    n = len(latencies)
    values = ledger.ledger(recorder.spans, n)
    values["trace.overhead_ratio"] = \
        (values["ledger.wall_ms"] / 1000.0) / untraced
    c = program.registry.counters
    counters = dict(recorder.counters)
    counters.update({f"program.{k}": v for k, v in c.items()})
    ledger.write_trace(ctx.trace_file, recorder.spans, recorder.t0,
                       {"workload": NAME, "seed": ctx.seed}, counters,
                       values)
    reverified = c.get("stream.reverify", 0)
    skipped = c.get("stream.reverify.skipped", 0)
    metrics = layer_metrics(
        values, counters, n,
        **{"stream.engine_hit_ratio": ratio(
            c.get("stream.engine.hits", 0),
            c.get("stream.engine.hits", 0)
            + c.get("stream.engine.misses", 0)),
           "stream.cells_skipped_ratio": ratio(skipped,
                                               reverified + skipped)})
    return {"outputs": _outputs(ctx.profile, seen), "ledger": values,
            "metrics": metrics}


def _outputs(profile: inputs.Profile,
             seen: List[Tuple[str, str, Dict[str, Any]]]
             ) -> List[Dict[str, Any]]:
    """Every floor verdict after every event, keyed by its state."""
    outputs = []
    for where, label, verdicts in seen:
        shaped = inputs.resolve(label, profile)
        for spec, result in verdicts.items():
            threat = result.threat
            outputs.append(output(
                inputs.config_key(shaped, spec), result.status.value,
                list(threat.failed_devices) if threat else None,
                f"{where} {spec.describe()}"))
    return outputs
