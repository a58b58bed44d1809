"""cli_cold: cold ``python -m repro verify`` processes, one at a time.

Closed loop, one client.  A unit of work is one pass over the twelve
cells (every property at k = 1, 2, 3) of the 118-bus case, in a seeded
order; each verify is a fresh interpreter with CLI defaults, so every
cold layer — interpreter start and imports, config parse, the lint
gate, path enumeration, the reference evaluator, encoding, the solve
and threat extraction — does all of its work on every request.
"""

from __future__ import annotations

import re
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

from repro.scada.config_io import dump_config

from bench import harness, inputs, ledger
from bench.lanes import Context, layer_metrics, output

NAME = "cli_cold"
TIMEOUT_S = 120
CHILD = Path(__file__).resolve().parent.parent / "cli_child.py"
_VIOLATED = re.compile(r"VIOLATED by \[(.*?)\]")
_DEVICE = re.compile(r"(?:IED|RTU) (\d+)")


def universe(profile: inputs.Profile) -> List[Tuple[str, Any]]:
    return [("main", spec) for spec in inputs.cli_cells()]


def plan(seed: int, profile: inputs.Profile) -> List[Dict[str, Any]]:
    config = inputs.resolve("main", profile)
    cells = inputs.cli_cells()
    return [{"op": i, "cell": inputs.config_key(config, cells[c]),
             "argv": inputs.cli_argv(cells[c])}
            for i, c in enumerate(inputs.cli_pass(seed, 0))]


def _verdict(proc: "subprocess.CompletedProcess[str]", cell: str,
             where: str) -> Dict[str, Any]:
    """The verdict a verify process reported (exit code + summary)."""
    first = proc.stdout.splitlines()[0] if proc.stdout else ""
    if proc.returncode == 0 and "HOLDS" in first:
        return output(cell, "resilient", None, where)
    found = _VIOLATED.search(first)
    if proc.returncode == 1 and found:
        devices = [int(d) for d in _DEVICE.findall(found.group(1))]
        return output(cell, "threat-found", devices, where)
    return output(cell, f"exit {proc.returncode}", None, where)


def measure(ctx: Context) -> Dict[str, Any]:
    cells = inputs.cli_cells()
    env = harness.child_env()

    def build() -> Tuple[Path, List[str]]:
        config = inputs.main_case(ctx.profile)
        path = ctx.workdir / "case.scada"
        path.write_text(dump_config(config), encoding="utf-8")
        # Compiles the bytecode and warms the file cache once, as
        # any user's first run after installing would.
        subprocess.run([sys.executable, "-c", "import repro.cli"],
                       env=env, check=True, timeout=TIMEOUT_S)
        return path, [inputs.config_key(config, spec) for spec in cells]

    (path, keys), setup = harness.median_setup(build)
    outputs: List[Dict[str, Any]] = []
    latencies: List[float] = []

    def one_pass(index: int) -> None:
        for c in inputs.cli_pass(ctx.seed, index):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "verify", str(path),
                 *inputs.cli_argv(cells[c])],
                env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
            latencies.append(time.perf_counter() - started)
            outputs.append(_verdict(proc, keys[c],
                                    f"pass {index} {cells[c].describe()}"))

    if not ctx.trace:
        wall = harness.run_units(one_pass, ctx.seconds)
        return {"outputs": outputs, "metrics": {
            "setup_s": harness.median(setup),
            "latency_p50_ms": harness.median(latencies) * 1000.0,
            "throughput_ops_s": len(latencies) / wall,
            "peak_rss_mb": harness.peak_rss_mb(),
        }}

    one_pass(0)
    untraced = sum(latencies) / len(latencies)
    recorder = ledger.Recorder()
    counters: Dict[str, float] = {}
    order = inputs.cli_pass(ctx.seed, 0)
    for request, c in enumerate(order):
        outputs.append(_traced_verify(
            recorder, counters, request, path, cells[c], keys[c],
            ctx.workdir / f"spans-{request}.json", env))
    values = ledger.ledger(recorder.spans, len(order))
    values["trace.overhead_ratio"] = \
        (values["ledger.wall_ms"] / 1000.0) / untraced
    ledger.write_trace(ctx.trace_file, recorder.spans, recorder.t0,
                       {"workload": NAME, "seed": ctx.seed}, counters,
                       values)
    return {"outputs": outputs, "ledger": values,
            "metrics": layer_metrics(values, counters, len(order))}


def _traced_verify(recorder: ledger.Recorder, counters: Dict[str, float],
                   request: int, path: Path, spec: Any, cell: str,
                   spans_file: Path, env: Dict[str, str]
                   ) -> Dict[str, Any]:
    """One verify under ``bench/cli_child.py``; merge its spans."""
    op_id = recorder.new_id()
    spawned = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(spans_file), repr(spawned),
         "verify", str(path), *inputs.cli_argv(spec)],
        env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
    reaped = time.perf_counter()
    child = harness.read_json(spans_file)
    renamed: Dict[int, int] = {}
    for span in child["spans"]:
        renamed[span["id"]] = recorder.new_id()
    for span in child["spans"]:
        parent = span["parent"]
        span.update(id=renamed[span["id"]],
                    parent=renamed[parent] if parent is not None
                    else op_id,
                    request=request, worker=child["pid"])
        recorder.spans.append(span)
    recorder.add(ledger.INSTALL, *child["install"], parent=op_id,
                 request=request)
    recorder.add("cli.teardown", child["end"], reaped, parent=op_id,
                 request=request)
    recorder.add("op", spawned, reaped, span_id=op_id, root=True,
                 request=request, spec=spec.describe())
    for name, value in child["counters"].items():
        counters[name] = counters.get(name, 0.0) + value
    return _verdict(proc, cell, f"traced {spec.describe()}")
