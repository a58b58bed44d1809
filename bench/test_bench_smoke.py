"""Smoke test of the benchmark: ``pytest bench/``.

Runs every workload at the smoke profile (14-bus case, tiny grids),
untraced and traced, and checks what the benchmark promises: every
metric of ``BENCHMARK.json`` printed with its unit, no wrong verdict,
a trace that ``repro stats`` accepts, and a ledger whose layers plus
the unattributed remainder add up to the traced wall time within 1%.
"""

from __future__ import annotations

import json
import subprocess
import sys
from typing import Any, Dict

import pytest

from bench import harness
from bench.ledger import LAYERS

RUN = harness.ROOT / "bench" / "run.py"


def _run(workload: str, trace: int) -> Dict[str, Any]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--profile",
         "smoke", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _units(result: Dict[str, Any]) -> Dict[str, str]:
    return {name: metric["unit"]
            for name, metric in result["metrics"].items()}


@pytest.mark.parametrize("workload", harness.WORKLOADS)
def test_workload(workload: str) -> None:
    untraced = _run(workload, 0)
    assert _units(untraced) == harness.metric_units("end_to_end")
    assert untraced["attempted"] > 0
    assert untraced["failed"] == 0 and untraced["correct"]

    traced = _run(workload, 1)
    assert _units(traced) == harness.metric_units("per_layer")
    assert traced["failed"] == 0 and traced["correct"]
    values = {name: metric["value"]
              for name, metric in traced["metrics"].items()}
    wall = values["ledger.wall_ms"]
    total = sum(values[f"{layer}_ms"] for layer in LAYERS) \
        + values["ledger.unattributed_ms"]
    assert wall > 0
    assert abs(total - wall) <= 0.01 * wall
    assert values["ledger.unattributed_ms"] >= -0.01 * wall

    harness.bootstrap()
    from bench.lanes import trace_path

    trace = trace_path(workload, "smoke", harness.DEFAULT_SEED)
    stats = subprocess.run(
        [sys.executable, "-m", "repro", "stats", str(trace)],
        env=harness.child_env(), capture_output=True, text=True,
        timeout=60)
    assert stats.returncode == 0, stats.stdout + stats.stderr
