"""corpus_sweep: resumable sweeps over a fleet of synthetic grids.

The fleet is every size of 200-1000 buses at two grid seeds, the grids
of ``benchmarks/bench_corpus_sweep.py``.  A unit of work is a pair of
sweeps that together cover the fleet; the seed decides which grid of
each size goes into which sweep.  Each sweep is ``run_corpus`` with its
defaults and two workers over a fresh store (grid regeneration, the
structural screen, fresh solves and store writes), followed by a
resumed pass that must re-solve nothing and report identical verdicts.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.corpus import ResultStore, generate_corpus, run_corpus
from repro.corpus.runner import GRIDS_FILE, STORE_DIR
from repro.obs import Tracer, activate

from bench import harness, inputs, ledger
from bench.lanes import Context, layer_metrics, output, ratio

NAME = "corpus_sweep"


def universe(profile: inputs.Profile) -> List[Tuple[str, Any]]:
    return [(f"grid-{size}-{seed}", spec)
            for size in profile.corpus_sizes
            for seed in inputs.CORPUS_GRID_SEEDS
            for spec in inputs.corpus_specs(profile)]


def plan(seed: int, profile: inputs.Profile) -> List[Dict[str, Any]]:
    ops = []
    for index in (0, 1):
        for size, grid_seed in inputs.corpus_sweep_grids(profile, seed,
                                                         index):
            config = inputs.resolve(f"grid-{size}-{grid_seed}", profile)
            ops.extend({"sweep": index, "grid": [size, grid_seed],
                        "cell": inputs.config_key(config, spec)}
                       for spec in inputs.corpus_specs(profile))
    return ops


class _Sweeps:
    """Runs sweeps over grids of one generated fleet."""

    def __init__(self, ctx: Context, fleet: Dict[Tuple[int, int],
                                                  Dict[str, Any]]) -> None:
        self.ctx = ctx
        self.fleet = fleet
        self.outputs: List[Dict[str, Any]] = []
        self.problems: List[str] = []
        self.walls: List[float] = []
        self.cells = 0
        self.screened = 0
        self.cold_walls: List[float] = []

    def sweep(self, index: int, jobs: int,
              recorder: Optional[ledger.Recorder] = None,
              tag: str = "") -> None:
        grids = inputs.corpus_sweep_grids(self.ctx.profile, self.ctx.seed,
                                          index)
        root = self.ctx.workdir / f"sweep{tag}-{index}"
        root.mkdir(parents=True)
        with open(root / GRIDS_FILE, "w", encoding="utf-8") as handle:
            for grid in grids:
                handle.write(json.dumps(self.fleet[grid],
                                        sort_keys=True) + "\n")
        ks = self.ctx.profile.corpus_ks
        started = time.perf_counter()
        cold = _run(root, ks, jobs, recorder, 2 * index)
        resumed = _run(root, ks, jobs, recorder, 2 * index + 1)
        self.walls.append(time.perf_counter() - started)
        self.cold_walls.append(cold.wall_time)
        self.cells += cold.cells
        self.screened += cold.screened
        where = f"sweep{tag} {index}"
        if cold.failures:
            self.problems.append(f"{where}: {cold.failures[0]}")
        redone = resumed.screened + resumed.solved + resumed.unknown
        if redone or resumed.skipped != cold.cells:
            self.problems.append(f"{where}: the resumed pass re-solved "
                                 f"{redone} cell(s)")
        if resumed.verdicts != cold.verdicts:
            self.problems.append(f"{where}: resumed verdicts differ")
        for record in ResultStore(str(root / STORE_DIR)):
            threat = record.result.threat
            self.outputs.append(output(
                inputs.cell_key(record.key.network_fingerprint,
                                record.key.problem_fingerprint,
                                record.spec),
                record.result.status.value,
                list(threat.failed_devices) if threat else None,
                f"{where} {record.meta.get('num_buses')} buses "
                f"{record.spec.describe()}"))
        shutil.rmtree(root)


def _run(root: Path, ks: Tuple[int, ...], jobs: int,
         recorder: Optional[ledger.Recorder], request: int) -> Any:
    if recorder is None:
        return run_corpus(str(root), ks=ks, jobs=jobs)
    recorder.enabled = True
    try:
        with recorder.op(request):
            return run_corpus(str(root), ks=ks, jobs=jobs)
    finally:
        recorder.enabled = False


def _fleet(ctx: Context) -> Dict[Tuple[int, int], Dict[str, Any]]:
    """Generate the fleet's recipes (``grids.jsonl``) in a fresh dir."""
    root = ctx.workdir / f"fleet-{time.time_ns()}"
    entries = generate_corpus(str(root), sizes=ctx.profile.corpus_sizes,
                              seeds=inputs.CORPUS_GRID_SEEDS,
                              scada=inputs.CORPUS_SCADA)
    return {(e["num_buses"], e["grid"]["seed"]): e for e in entries}


def measure(ctx: Context) -> Dict[str, Any]:
    fleet, samples = harness.median_setup(lambda: _fleet(ctx))
    sweeps = _Sweeps(ctx, fleet)
    if not ctx.trace:
        def pair(index: int) -> None:
            sweeps.sweep(2 * index, inputs.CORPUS_JOBS)
            sweeps.sweep(2 * index + 1, inputs.CORPUS_JOBS)

        harness.run_units(pair, ctx.seconds)
        return {"outputs": sweeps.outputs, "problems": sweeps.problems,
                "metrics": {
                    "setup_s": harness.median(samples),
                    "latency_p50_ms": harness.median(sweeps.walls) * 1e3,
                    "throughput_ops_s": sweeps.cells / sum(sweeps.walls),
                    "peak_rss_mb": harness.peak_rss_mb(),
                }}
    return _traced(ctx, fleet, sweeps)


def _traced(ctx: Context, fleet: Dict[Tuple[int, int], Dict[str, Any]],
            pooled: _Sweeps) -> Dict[str, Any]:
    """One sweep pooled, then inline untraced, then inline traced.

    The traced pass runs the workers inline (``jobs=1``) so the
    wrappers see their work; the inline untraced pass is the baseline
    of the tracing overhead, and the pooled pass the baseline of the
    sweep efficiency.
    """
    pooled.sweep(0, inputs.CORPUS_JOBS, tag="-pooled")
    inline = _Sweeps(ctx, fleet)
    inline.sweep(0, 1, tag="-inline")
    traced = _Sweeps(ctx, fleet)
    recorder = ledger.Recorder()
    program = Tracer()
    restore = ledger.install(recorder)
    try:
        with activate(program):
            traced.sweep(0, 1, recorder, tag="-traced")
    finally:
        restore()
    values = ledger.ledger(recorder.spans, traced.cells)
    overhead = traced.walls[0] / inline.walls[0]
    values["trace.overhead_ratio"] = overhead
    # Per-grid task times of the traced inline pass, scaled back to
    # untraced speed: the best a two-worker pool could do is the larger
    # of the biggest grid and an even split.
    tasks = [record["attrs"]["dur"] / overhead
             for record in program.records
             if record.get("name") == "sweep.task"
             and record["attrs"].get("ok")]
    ideal = max(max(tasks), sum(tasks) / inputs.CORPUS_JOBS) \
        if tasks else 0.0
    counters = dict(recorder.counters)
    counters.update({f"program.{k}": v
                     for k, v in program.registry.counters.items()})
    ledger.write_trace(ctx.trace_file, recorder.spans, recorder.t0,
                       {"workload": NAME, "seed": ctx.seed}, counters,
                       values)
    metrics = layer_metrics(
        values, counters, traced.cells,
        **{"graphs.screened_ratio": ratio(traced.screened, traced.cells),
           "engine.sweep_efficiency": ratio(ideal,
                                            pooled.cold_walls[0])})
    return {"outputs": pooled.outputs + inline.outputs + traced.outputs,
            "problems": pooled.problems + inline.problems
            + traced.problems,
            "ledger": values, "metrics": metrics}
