"""Structural screening ablation — 118-bus max resiliency + threat space.

Measures what the polynomial-time structural pass buys the solver-backed
analyses on the largest evaluation case:

* **max-resiliency axis**: the total-budget search for every property,
  screening on vs off — wall time, solver queries issued, and the
  returned bounds (which must be identical: screening is an
  optimization, never an answer change).
* **threat-space axis**: enumeration *candidate counts* (solver calls:
  one per vector found plus the final refutation) for budgets below the
  structurally certified minimal attack cardinality — screened runs
  prove emptiness with zero solver calls.

Run directly (``python benchmarks/bench_graphs_screening.py``) to write
``BENCH_graphs.json`` at the repo root; ``BENCH_SMOKE=1`` switches to
the 14-bus case for CI.
"""

from __future__ import annotations

import io
import json
import os
import pathlib
import time
from typing import Any, Dict

from repro.analysis import threat_space
from repro.core import ObservabilityProblem, Property, ResiliencySpec
from repro.engine import VerificationEngine
from repro.grid import case_by_buses
from repro.obs.tracer import Tracer, set_tracer
from repro.scada import GeneratorConfig, generate_scada

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
BUSES = 14 if SMOKE else 118
HIERARCHIES = (1,) if SMOKE else (1, 2)
SEED = 7
OUT = pathlib.Path(__file__).resolve().parent.parent / "BENCH_graphs.json"


def _build(hierarchy: int):
    synthetic = generate_scada(
        case_by_buses(BUSES, seed=SEED),
        GeneratorConfig(measurement_fraction=0.7, secure_fraction=1.0,
                        dual_home_fraction=0.3, hierarchy_level=hierarchy,
                        seed=SEED))
    problem = ObservabilityProblem.from_table(synthetic.table)
    return synthetic.network, problem


def _traced(fn):
    """Run *fn* under a fresh tracer; return (result, wall_s, counters)."""
    sink = io.StringIO()
    tracer = Tracer(sink)
    previous = set_tracer(tracer)
    start = time.perf_counter()
    try:
        result = fn()
    finally:
        wall = time.perf_counter() - start
        tracer.close()
        set_tracer(previous)
    counters: Dict[str, int] = {"query": 0}
    for line in sink.getvalue().splitlines():
        record = json.loads(line)
        if record.get("type") == "span" and record.get("name") == "query":
            counters["query"] += 1
        if record.get("type") == "metrics":
            for key, value in record.get("counters", {}).items():
                if key.startswith("graphs."):
                    counters[key] = counters.get(key, 0) + value
    return result, wall, counters


def _bench_max_resiliency(network, problem) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for prop in Property:
        entry: Dict[str, Any] = {}
        for screen in (True, False):
            engine = VerificationEngine(network, problem,
                                        backend="assumption", lint=False)
            bounds, wall, counters = _traced(
                lambda e=engine, s=screen: e.max_resiliency(prop,
                                                            screen=s))
            entry["screened" if screen else "unscreened"] = {
                "wall_s": round(wall, 3),
                "solver_queries": counters["query"],
                "bounds": [bounds.lower, bounds.upper],
            }
        entry["agree"] = (entry["screened"]["bounds"]
                          == entry["unscreened"]["bounds"])
        out[prop.value] = entry
    return out


def _bench_threat_space(network, problem) -> Dict[str, Any]:
    engine = VerificationEngine(network, problem, backend="assumption",
                                lint=False)
    lower = {prop: engine.structural().attack_bounds(prop).lower
             for prop in Property}
    specs = []
    for prop in (Property.OBSERVABILITY, Property.SECURED_OBSERVABILITY):
        for budget in range(0, max(1, lower[prop])):
            specs.append(ResiliencySpec.for_property(prop, k=budget))
    rows = []
    totals = {"screened": 0, "unscreened": 0}
    for spec in specs:
        row: Dict[str, Any] = {"spec": spec.describe()}
        for screen in (True, False):
            space, wall, _ = _traced(
                lambda s=screen: threat_space(engine, spec, screen=s))
            # Solver calls issued: one per vector plus the closing
            # refutation; a screened run never reaches the solver.
            candidates = 0 if space.screened else space.size + 1
            key = "screened" if screen else "unscreened"
            row[key] = {"candidates": candidates, "vectors": space.size,
                        "wall_s": round(wall, 3)}
            row.setdefault("sizes", []).append(space.size)
            totals[key] += candidates
        row["sizes_agree"] = row["sizes"][0] == row["sizes"][1]
        del row["sizes"]
        rows.append(row)
    return {"specs": rows, "total_candidates": totals}


def _bench_hierarchy(hierarchy: int) -> Dict[str, Any]:
    network, problem = _build(hierarchy)
    engine = VerificationEngine(network, problem, backend="assumption",
                                lint=False)
    start = time.perf_counter()
    structural = engine.structural()
    brackets = {prop.value: structural.attack_bounds(prop).describe()
                for prop in Property}
    structural_wall = time.perf_counter() - start
    return {
        "case": {
            "buses": BUSES,
            "hierarchy": hierarchy,
            "seed": SEED,
            "devices": len(network.devices),
            "measurements": problem.num_measurements,
            "states": problem.num_states,
        },
        "structural_pass": {
            "wall_s": round(structural_wall, 3),
            "certified": {
                "assured": structural.certified(False),
                "secured": structural.certified(True),
            },
            "brackets": brackets,
        },
        "max_resiliency": _bench_max_resiliency(network, problem),
        "threat_space": _bench_threat_space(network, problem),
    }


def main() -> None:
    payload = {f"hierarchy_{h}": _bench_hierarchy(h) for h in HIERARCHIES}
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT}")
    for key, entry in payload.items():
        totals = entry["threat_space"]["total_candidates"]
        print(f"{key}: devices={entry['case']['devices']} "
              f"candidates {totals['unscreened']} -> "
              f"{totals['screened']}")


if __name__ == "__main__":
    main()
