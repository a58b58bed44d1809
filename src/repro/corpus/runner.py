"""Resumable corpus sweeps over synthetic grids.

A corpus lives in one directory::

    corpus/
      grids.jsonl   # the recipes: GridSpec + GeneratorConfig + fingerprints
      store/        # the ResultStore (shards, index, quarantine)

:func:`generate_corpus` writes ``grids.jsonl`` — each line a seeded
recipe plus the *precomputed* network/problem fingerprints, so later
runs can key store lookups without regenerating a single grid in the
parent process.  :func:`run_corpus` expands grids × properties ×
budgets into cells, skips every cell the store already holds, and
shards the rest across a :class:`~repro.engine.SweepExecutor` — one
task per grid, so workers amortize regeneration and encoding across
that grid's cells.  Workers screen each cell against the structural
attack bracket first (a certified bracket decides the cell with zero
solver queries) and record UNKNOWN verdicts together with the sound
:class:`~repro.core.search.SearchBounds`, so a later retry under a
bigger budget starts from what is already proven.

Resume semantics: kill a run at any point and start it again — cells
already persisted are skipped (the store is flushed after every grid),
cells in flight re-run, and verdicts are identical either way because
grids, specs, and limits are all fingerprint-keyed.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.problem import ObservabilityProblem
from ..core.results import Status, ThreatVector, VerificationResult
from ..core.search import SearchBounds
from ..core.specs import Property, ResiliencySpec
from ..engine.engine import VerificationEngine
from ..engine.sweep import SweepExecutor, SweepTaskError
from ..obs.tracer import count as obs_count
from ..obs.tracer import observe as obs_observe
from ..sat.limits import Limits
from .store import (
    CellKey,
    CorpusRecord,
    ResultStore,
    limits_from_payload,
    limits_payload,
    spec_from_payload,
    spec_payload,
)
from .synth import GridSpec, grow_grid

__all__ = [
    "CorpusReport", "corpus_status", "generate_corpus", "load_grids",
    "run_corpus",
]

GRIDS_FILE = "grids.jsonl"
STORE_DIR = "store"


def _scada_config() -> Any:
    """The generator config class, imported lazily.

    ``repro.scada.generator`` pulls in the measurement sampling stack;
    deferring keeps ``import repro.corpus`` cheap for status-only use.
    """
    from ..scada.generator import GeneratorConfig

    return GeneratorConfig


def _materialize(entry: Mapping[str, Any]
                 ) -> Tuple[Any, ObservabilityProblem]:
    """Regenerate (network, problem) from a grids.jsonl *entry*.

    Verifies the regenerated fingerprints against the recorded ones:
    any drift (a changed generator, a different platform RNG) must fail
    loudly rather than silently file results under stale keys.
    """
    from ..scada.generator import generate_scada

    spec = GridSpec.from_json(entry["grid"])
    config = _scada_config()(**entry["scada"])
    synthetic = generate_scada(grow_grid(spec), config)
    problem = ObservabilityProblem.from_table(synthetic.table)
    network = synthetic.network
    got = (network.fingerprint(), problem.fingerprint())
    want = (entry["network_fingerprint"], entry["problem_fingerprint"])
    if got != want:
        raise RuntimeError(
            f"grid {spec.name}: regenerated fingerprints {got} do not "
            f"match recorded {want}; the generator drifted and the "
            f"store keys are stale")
    return network, problem


def generate_corpus(root: str, sizes: Sequence[int],
                    seeds: Sequence[int] = (0,),
                    avg_degree: float = 3.0,
                    preferential: float = 0.8,
                    meshing: float = 0.3,
                    scada: Optional[Any] = None) -> List[Dict[str, Any]]:
    """Write ``grids.jsonl`` under *root*: one recipe per size × seed.

    Grids are actually grown once here — to validate the recipe and to
    precompute the fingerprints that key every later store lookup — and
    then only their recipes are persisted.
    """
    config = scada if scada is not None else _scada_config()()
    from ..scada.generator import generate_scada

    os.makedirs(root, exist_ok=True)
    entries: List[Dict[str, Any]] = []
    for num_buses in sizes:
        for seed in seeds:
            spec = GridSpec(num_buses=num_buses, avg_degree=avg_degree,
                            preferential=preferential, meshing=meshing,
                            seed=seed)
            synthetic = generate_scada(grow_grid(spec), config)
            problem = ObservabilityProblem.from_table(synthetic.table)
            entries.append({
                "grid": spec.to_json(),
                "scada": asdict(config),
                "network_fingerprint":
                    synthetic.network.fingerprint(),
                "problem_fingerprint": problem.fingerprint(),
                "num_buses": num_buses,
                "num_devices": synthetic.num_devices,
                "num_measurements": len(problem.state_sets),
            })
            obs_count("corpus.grids.generated")
    path = os.path.join(root, GRIDS_FILE)
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    os.replace(tmp, path)
    return entries


def load_grids(root: str) -> List[Dict[str, Any]]:
    path = os.path.join(root, GRIDS_FILE)
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"no {GRIDS_FILE} under {root}; run corpus generate first")
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


# -- the per-grid worker ------------------------------------------------


def _screen_cell(engine: VerificationEngine, spec: ResiliencySpec
                 ) -> Optional[VerificationResult]:
    """Decide *spec* from the structural attack bracket, if it can.

    A cell (property, k) is resilient iff ``k`` is strictly below the
    minimal attack cardinality ``c``.  A certified lower bound ``l``
    proves resilience for every ``k < l``; a witness of size ``u``
    proves a threat for every ``k >= u``.  Only total budgets without
    link failures translate this directly.
    """
    if spec.budget.k is None or spec.link_k is not None:
        return None
    k = spec.budget.k
    bounds = engine.structural().attack_bounds(spec.property, r=spec.r)
    if bounds.certified and k < bounds.lower:
        return VerificationResult(spec=spec, status=Status.RESILIENT,
                                  backend="structural")
    if bounds.upper is not None and bounds.upper <= k:
        ieds = set(engine.network.ied_ids)
        witness = frozenset(bounds.witness)
        threat = ThreatVector(
            failed_ieds=frozenset(d for d in witness if d in ieds),
            failed_rtus=frozenset(d for d in witness if d not in ieds))
        return VerificationResult(spec=spec, status=Status.THREAT_FOUND,
                                  threat=threat, backend="structural")
    return None


def _unknown_bounds(engine: VerificationEngine,
                    spec: ResiliencySpec) -> Optional[SearchBounds]:
    """The sound resiliency bracket to persist with an UNKNOWN cell."""
    if spec.budget.k is None:
        return None
    k = spec.budget.k
    bounds = engine.structural().attack_bounds(spec.property, r=spec.r)
    lower = bounds.lower - 1 if bounds.certified else -1
    upper = (bounds.upper - 1 if bounds.upper is not None
             else len(engine.network.field_device_ids))
    return SearchBounds(lower=lower, upper=max(upper, lower),
                        unknown_budgets=(k,))


def _run_cells(task: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Pool worker: run every pending cell of one grid.

    Module-level and driven entirely by JSON-able payloads, so it
    pickles across :class:`~repro.engine.SweepExecutor` pools.  Returns
    the finished cells as :class:`CorpusRecord` payload dicts; the
    parent decodes and persists them.
    """
    network, problem = _materialize(task["entry"])
    limits = limits_from_payload(task["limits"])
    engine = VerificationEngine(network, problem, backend="fresh",
                                lint=False)
    records: List[Dict[str, Any]] = []
    for cell in task["cells"]:
        spec = spec_from_payload(cell["spec"])
        started = time.perf_counter()
        result = _screen_cell(engine, spec)
        screened = result is not None
        if result is None:
            result = engine.verify(spec, minimize=False, limits=limits)
        bounds = (_unknown_bounds(engine, spec)
                  if result.status is Status.UNKNOWN else None)
        obs_observe("corpus.cell.ms",
                    (time.perf_counter() - started) * 1e3)
        if screened:
            obs_count("corpus.cells.screened")
        elif result.status is Status.UNKNOWN:
            obs_count("corpus.cells.unknown")
        else:
            obs_count("corpus.cells.solved")
        key = CellKey(*cell["key"])
        record = CorpusRecord(
            key=key, spec=spec, limits=limits, result=result,
            bounds=bounds,
            meta={"grid": task["entry"]["grid"],
                  "num_buses": task["entry"]["num_buses"],
                  "screened": screened})
        records.append(record.to_json())
    return records


# -- the driver ---------------------------------------------------------


@dataclass
class CorpusReport:
    """What one :func:`run_corpus` call did."""

    grids: int = 0
    cells: int = 0
    skipped: int = 0
    screened: int = 0
    solved: int = 0
    unknown: int = 0
    resilient: int = 0
    threats: int = 0
    wall_time: float = 0.0
    failures: List[str] = field(default_factory=list)
    #: cell digest → status value, covering skipped *and* fresh cells —
    #: this is what lets a resumed run prove verdict identity.
    verdicts: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "grids": self.grids, "cells": self.cells,
            "skipped": self.skipped, "screened": self.screened,
            "solved": self.solved, "unknown": self.unknown,
            "resilient": self.resilient, "threats": self.threats,
            "wall_time": self.wall_time,
            "failures": list(self.failures),
            "verdicts": dict(sorted(self.verdicts.items())),
        }

    def summary(self) -> str:
        parts = [f"{self.cells} cell(s) over {self.grids} grid(s): "
                 f"{self.skipped} resumed, {self.screened} screened, "
                 f"{self.solved} solved, {self.unknown} unknown "
                 f"({self.wall_time:.2f}s)"]
        parts.append(f"  verdicts: {self.resilient} resilient, "
                     f"{self.threats} threat(s)")
        if self.failures:
            parts.append(f"  failures: {len(self.failures)}")
        return "\n".join(parts)


def _tally(report: CorpusReport, record: CorpusRecord,
           skipped: bool) -> None:
    report.verdicts[record.key.digest()] = record.result.status.value
    if skipped:
        report.skipped += 1
    elif record.meta.get("screened"):
        report.screened += 1
    elif record.result.status is Status.UNKNOWN:
        report.unknown += 1
    else:
        report.solved += 1
    if record.result.status is Status.RESILIENT:
        report.resilient += 1
    elif record.result.status is Status.THREAT_FOUND:
        report.threats += 1


def run_corpus(root: str,
               properties: Sequence[Property] = (
                   Property.OBSERVABILITY,),
               ks: Sequence[int] = (0, 1, 2),
               r: int = 1,
               limits: Optional[Limits] = None,
               jobs: Optional[int] = 1,
               timeout: Optional[float] = None,
               retries: int = 0,
               resume: bool = True) -> CorpusReport:
    """Sweep every grid × property × budget cell, resumably.

    With ``resume=True`` (default) cells whose exact (grid fingerprint,
    spec, limits) key is already stored are not re-run — their stored
    verdicts still appear in the report, so a resumed run's verdict map
    equals a cold run's.  ``resume=False`` recomputes everything
    (overwriting in place), which is how the benchmarks prove verdict
    identity.
    """
    started = time.perf_counter()
    entries = load_grids(root)
    store = ResultStore(os.path.join(root, STORE_DIR))
    report = CorpusReport(grids=len(entries))
    specs = [ResiliencySpec.for_property(prop, r=r, k=k)
             for prop in properties for k in ks]
    limits_pay = limits_payload(limits)

    tasks: List[Dict[str, Any]] = []
    for entry in entries:
        pending: List[Dict[str, Any]] = []
        for spec in specs:
            report.cells += 1
            obs_count("corpus.cells")
            key = CellKey.for_cell(entry["network_fingerprint"],
                                   entry["problem_fingerprint"],
                                   spec, limits)
            stored = store.get(key) if resume else None
            if stored is not None:
                obs_count("corpus.cells.skipped")
                _tally(report, stored, skipped=True)
                continue
            pending.append({"spec": spec_payload(spec),
                            "key": list(key)})
        if pending:
            tasks.append({"entry": entry, "cells": pending,
                          "limits": limits_pay})

    if tasks:
        executor = SweepExecutor(jobs=jobs)
        outcomes = executor.map(_run_cells, tasks, timeout=timeout,
                                retries=retries, on_error="return")
        for outcome in outcomes:
            if isinstance(outcome, SweepTaskError):
                report.failures.append(str(outcome))
                continue
            for payload in outcome:
                record = CorpusRecord.from_json(payload)
                store.put(record, flush=False)
                _tally(report, record, skipped=False)
            # Flush per grid: a kill between grids loses at most the
            # grid in flight, and the resume skips everything flushed.
            store.flush()
    report.wall_time = time.perf_counter() - started
    return report


def corpus_status(root: str) -> Dict[str, Any]:
    """Summarize a corpus directory without running anything."""
    entries = load_grids(root)
    store = ResultStore(os.path.join(root, STORE_DIR))
    unknowns = [{
        "grid": record.meta.get("grid", {}).get("num_buses"),
        "spec": record.spec.describe(),
        "bounds": (record.bounds.describe()
                   if record.bounds is not None else None),
        "limit_reason": record.result.limit_reason,
    } for record in store.unknown_records()]
    return {
        "root": root,
        "grids": len(entries),
        "buses": sorted({entry["num_buses"] for entry in entries}),
        "records": len(store),
        "by_status": store.by_status(),
        "quarantined_shards": store.quarantined,
        "unknown_cells": unknowns,
    }
