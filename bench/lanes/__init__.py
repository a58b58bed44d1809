"""The four workloads ("lanes") and what they share.

Each lane module provides:

* ``NAME``;
* ``universe(profile)`` — every (configuration label, spec) cell the
  lane can ask about, on any seed;
* ``plan(seed, profile)`` — the operations of the lane's first unit of
  work under *seed*, for the expected-answers file;
* ``measure(ctx)`` — run the lane in this process and return its raw
  result (metrics, plus every returned verdict for the oracle to
  check).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import harness
from bench.inputs import Profile


@dataclass(frozen=True)
class Context:
    """What one measuring run was asked to do."""

    workload: str
    seed: int
    seconds: float
    profile: Profile
    trace: bool
    workdir: Path

    @property
    def trace_file(self) -> Path:
        return trace_path(self.workload, self.profile.name, self.seed)


def trace_path(workload: str, profile: str, seed: int) -> Path:
    """Where a traced run of *workload* writes its JSONL trace."""
    return harness.WORK / "traces" / f"{workload}-{profile}-seed{seed}.jsonl"


def output(cell: str, status: str, witness: Optional[List[int]],
           where: str) -> Dict[str, Any]:
    """One returned verdict, as the oracle checks it."""
    return {"cell": cell, "status": status,
            "witness": sorted(witness) if witness is not None else None,
            "where": where}


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(ledger: Dict[str, float], counters: Dict[str, float],
                  ops: int, **lane_values: float) -> Dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` for one lane.

    Layers a lane never reaches read 0; ratios with no attempts read 0.
    """
    names = list(harness.metric_units("per_layer"))
    per_op = 1.0 / max(1, ops)
    c = counters
    values: Dict[str, float] = {name: 0.0 for name in names}
    values.update({k: v for k, v in ledger.items() if k in values})
    values.update({
        "scada.paths_miss_ratio": ratio(c.get("scada.paths.misses", 0),
                                        c.get("scada.paths.calls", 0)),
        "core.contexts_built": c.get("core.contexts_built", 0) * per_op,
        "sat.solves": c.get("sat.solves", 0) * per_op,
        "sat.conflicts": c.get("sat.conflicts", 0) * per_op,
        "sat.propagations": c.get("sat.propagations", 0) * per_op,
        "engine.cache_hit_ratio": ratio(c.get("engine.cache.hits", 0),
                                        c.get("engine.cache.lookups", 0)),
        "service.session_hit_ratio": ratio(
            c.get("service.session.hits", 0),
            c.get("service.session.lookups", 0)),
        "service.session_evictions":
            c.get("service.session.evictions", 0) * per_op,
    })
    values.update(lane_values)
    return {name: float(values[name]) for name in names}


def _registry() -> Dict[str, Any]:
    from bench.lanes import cli_cold, corpus_sweep, service_mix
    from bench.lanes import stream_events

    return {lane.NAME: lane for lane in (cli_cold, service_mix,
                                         stream_events, corpus_sweep)}


LANES = _registry()
