"""Shared plumbing: paths, bootstrap, statistics, JSON files, pacing.

Nothing here imports ``repro``: :func:`bootstrap` has to run first, so
that the program is loaded from this checkout's ``src/`` and a checkout
without it fails before any measurement starts.
"""

from __future__ import annotations

import json
import math
import os
import resource
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes (oracle cache, traces, scratch corpora,
#: per-run raw results) lives here, inside the checkout and ignored by
#: git.
WORK = ROOT / ".bench_work"
BENCHMARK_FILE = ROOT / "BENCHMARK.json"

WORKLOADS = ("cli_cold", "service_mix", "stream_events", "corpus_sweep")
DEFAULT_SEED = 7
#: How many times each run builds its set-up; ``setup_s`` is the median.
SETUP_REPEATS = 3


class BenchError(RuntimeError):
    """The benchmark itself cannot run (not a wrong verdict)."""


def bootstrap() -> None:
    """Make ``import repro`` load this checkout's sources, or fail."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC}; run the "
                         f"benchmark from a full checkout")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def run_group(cmd: List[str], timeout: float,
              **kwargs: Any) -> "subprocess.CompletedProcess[Any]":
    """Run *cmd* in its own process group, waiting for it to end.

    On timeout the whole group — the child and anything it started,
    such as verify processes or pool workers — is killed and reaped
    before :class:`subprocess.TimeoutExpired` propagates.
    """
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def child_env() -> Dict[str, str]:
    """Environment for a child interpreter that must import ``repro``."""
    env = dict(os.environ)
    parts = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


# -- statistics ---------------------------------------------------------


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of *values* (``q`` in [0, 1])."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = math.floor(pos)
    high = math.ceil(pos)
    frac = pos - low
    return ordered[low] + (ordered[high] - ordered[low]) * frac


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


# -- files --------------------------------------------------------------


def read_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def write_json(path: Path, payload: Any) -> None:
    """Write *payload* atomically (temp file + rename)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".{os.getpid()}.tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    os.replace(tmp, path)


def benchmark_spec() -> Dict[str, Any]:
    """``BENCHMARK.json``: the metric names, units and bounds."""
    return read_json(BENCHMARK_FILE)


def metric_units(section: str) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in benchmark_spec()[section]}


# -- pacing -------------------------------------------------------------


def run_units(unit: Callable[[int], None], seconds: float) -> float:
    """Run whole units of work for about *seconds*; return the wall.

    A run always measures complete units (a pass over every CLI cell, a
    stream cycle, a pair of corpus sweeps), never a prefix of one, so
    every run measures the same mix of work whatever the machine's
    speed.  The next unit starts only if the previous unit's duration
    says it will finish within *seconds*; at least one unit runs.
    """
    started = time.perf_counter()
    index = 0
    while True:
        unit_started = time.perf_counter()
        unit(index)
        index += 1
        now = time.perf_counter()
        if now - started + (now - unit_started) > seconds:
            return now - started


def median_setup(build: Callable[[], Any],
                 teardown: Optional[Callable[[Any], None]] = None
                 ) -> "tuple[Any, List[float]]":
    """Build the set-up :data:`SETUP_REPEATS` times, timing each; keep
    the last one (*teardown* releases the others)."""
    samples: List[float] = []
    kept: Any = None
    for _ in range(SETUP_REPEATS):
        if kept is not None and teardown is not None:
            teardown(kept)
        started = time.perf_counter()
        kept = build()
        samples.append(time.perf_counter() - started)
    return kept, samples
