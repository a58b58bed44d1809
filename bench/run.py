"""The benchmark's one command.

``python3 bench/run.py --workload W --seed S --seconds N --trace 0|1``
measures one workload and prints, as its last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``; with
``--trace 1`` (or a bare ``--trace``) the workload is replayed with the
ledger's timing wrappers installed, the per-layer metrics are printed
and a JSONL trace is written under ``.bench_work/traces/``.

Without ``--workload`` every workload runs, each in its own fresh
interpreter.  ``--repeat N`` runs each workload N times on seeds
S .. S+N-1 and prints every metric's median and quartiles; save them
with ``--out FILE`` and compare two such files with
``bench/compare.py``.

Each measuring run is a child interpreter: this process computes (or
loads) the expected answers first, then checks every verdict the child
returned, so neither the oracle's memory nor its time touches the
measurement.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from bench import harness  # noqa: E402

CHILD_TIMEOUT_S = 170.0


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run the benchmark of record (see bench/README.md).")
    parser.add_argument("--workload", choices=harness.WORKLOADS,
                        help="one workload (default: all, each in its "
                             "own interpreter)")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED,
                        help="workload seed (default: %(default)s)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, const=1,
                        default=0, choices=(0, 1),
                        help="1: replay under the layer wrappers and "
                             "print the per-layer ledger")
    parser.add_argument("--repeat", type=int, default=None, metavar="N",
                        help="run each workload N times on seeds "
                             "S..S+N-1; print medians and quartiles")
    parser.add_argument("--out", type=Path, default=None,
                        help="with --repeat: write the summary here")
    parser.add_argument("--profile", choices=("full", "smoke"),
                        default="full",
                        help="smoke: 14-bus and tiny grids (the smoke "
                             "test's profile)")
    parser.add_argument("--measure", type=Path, default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(harness.benchmark_spec()["run_seconds"])
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        harness.bootstrap()
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.measure is not None:
        return _measure(args)
    if args.repeat is not None:
        return _repeat(args)
    if args.workload is None:
        return _run_all(args)
    return _run_one(args)


def _forwarded(args: argparse.Namespace, workload: str,
               seed: int) -> List[str]:
    return ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--profile", args.profile]


# -- one workload -------------------------------------------------------


def _run_one(args: argparse.Namespace) -> int:
    from bench import lanes, oracle

    lane = lanes.LANES[args.workload]
    cells = oracle.answers(lane, args.profile)
    expected = oracle.expected_file(lane.NAME, args.seed, args.profile)
    if expected != oracle.committed_file(lane.NAME) \
            or not expected.is_file():
        oracle.write_expected(lane, args.seed, args.profile, cells)
    workdir = harness.WORK / "runs" / \
        f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    raw = workdir / "raw.json"
    try:
        proc = harness.run_group(
            [sys.executable, str(Path(__file__).resolve()),
             "--measure", str(raw),
             *_forwarded(args, args.workload, args.seed)],
            CHILD_TIMEOUT_S, env=harness.child_env())
        if proc.returncode != 0 or not raw.is_file():
            print(f"bench: {args.workload} measurement failed "
                  f"(exit {proc.returncode})", file=sys.stderr)
            return 1
        result = harness.read_json(raw)
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} measurement timed out",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _report(args, lane, cells, result)


def _measure(args: argparse.Namespace) -> int:
    """Child mode: run the workload here, write the raw result."""
    from bench import inputs, lanes

    ctx = lanes.Context(args.workload, args.seed, args.seconds,
                        inputs.PROFILES[args.profile], bool(args.trace),
                        args.measure.parent)
    result = lanes.LANES[args.workload].measure(ctx)
    harness.write_json(args.measure, result)
    return 0


def _report(args: argparse.Namespace, lane: Any,
            cells: Dict[str, Any], result: Dict[str, Any]) -> int:
    from bench import oracle

    checker = oracle.Checker(cells, args.profile)
    outputs = result["outputs"]
    failed = sum(1 for item in outputs if not checker.check(item))
    checker.save()
    problems = list(checker.problems) + list(result.get("problems", []))
    section = "per_layer" if args.trace else "end_to_end"
    units = harness.metric_units(section)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"metrics {sorted(set(metrics) ^ set(units))} "
                        f"do not match BENCHMARK.json")
    if args.trace:
        problems.extend(_trace_problems(args, result))
    print(f"{lane.NAME} seed={args.seed} profile={args.profile} "
          f"{'traced' if args.trace else 'untraced'}: "
          f"{len(outputs)} verdict(s), {failed} wrong")
    for problem in problems[:20]:
        print(f"  ! {problem}")
    for note in result.get("notes", []):
        print(f"  {note}")
    if args.trace:
        _print_ledger(metrics)
    else:
        for name, unit in units.items():
            print(f"  {name:<20} {metrics.get(name, float('nan')):>12.4f} "
                  f"{unit}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0


def _trace_problems(args: argparse.Namespace,
                    result: Dict[str, Any]) -> List[str]:
    """The trace must validate, aggregate, and its ledger add up."""
    from repro.obs.schema import load_trace, validate_trace
    from repro.obs.stats import aggregate

    from bench.lanes import trace_path

    path = trace_path(args.workload, args.profile, args.seed)
    problems = [f"trace: {p}" for p in validate_trace(load_trace(str(path)))]
    problems.extend(f"stats: {p}" for p in aggregate([str(path)]).problems)
    error = result["ledger"]["ledger.sum_error"]
    if error > 0.01:
        problems.append(f"ledger: layers + unattributed miss the traced "
                        f"wall by {error:.2%}")
    return problems


def _print_ledger(metrics: Dict[str, float]) -> None:
    from bench.ledger import LAYERS

    wall = metrics["ledger.wall_ms"]
    print(f"  ledger per op: traced wall {wall:.2f} ms, tracing "
          f"overhead x{metrics['trace.overhead_ratio']:.3f}")
    rows = [(f"{layer}_ms", metrics[f"{layer}_ms"]) for layer in LAYERS]
    rows.append(("ledger.unattributed_ms", metrics["ledger.unattributed_ms"]))
    for name, value in sorted(rows, key=lambda row: -row[1]):
        if value:
            share = value / wall if wall else 0.0
            print(f"    {name:<30} {value:>11.3f} ms  {share:6.1%}")
    others = [name for name in metrics
              if not name.endswith("_ms") and name != "trace.overhead_ratio"]
    for name in others:
        print(f"    {name:<30} {metrics[name]:>11.4f}")


# -- several workloads / repeats ----------------------------------------


def _child_result(args: argparse.Namespace, workload: str,
                  seed: int) -> Optional[Dict[str, Any]]:
    """Run one workload in a fresh interpreter; its final JSON line."""
    try:
        proc = harness.run_group(
            [sys.executable, str(Path(__file__).resolve()),
             *_forwarded(args, workload, seed)],
            CHILD_TIMEOUT_S + 60, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        print(f"bench: {workload} seed {seed} timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + ("\n" if lines else ""))
    if proc.returncode != 0 or not lines:
        print(f"bench: {workload} seed {seed} failed "
              f"(exit {proc.returncode})", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def _run_all(args: argparse.Namespace) -> int:
    results = {}
    for workload in harness.WORKLOADS:
        result = _child_result(args, workload, args.seed)
        if result is None:
            return 1
        results[workload] = result
    print(json.dumps({"workloads": results}))
    return 0


def _repeat(args: argparse.Namespace) -> int:
    summary: Dict[str, Dict[str, Any]] = {}
    for workload in ([args.workload] if args.workload
                     else list(harness.WORKLOADS)):
        runs = []
        for index in range(args.repeat):
            result = _child_result(args, workload, args.seed + index)
            if result is None:
                return 1
            runs.append(result)
        summary[workload] = _spread(runs)
        print(f"{workload}: {args.repeat} run(s), seeds {args.seed}.."
              f"{args.seed + args.repeat - 1}")
        for name, row in summary[workload]["metrics"].items():
            print(f"  {name:<28} median {row['median']:>12.4f} "
                  f"{row['unit']:<6} IQR {row['iqr_share']:7.2%}")
    out = args.out or harness.WORK / "repeat" / f"{time.time_ns()}.json"
    harness.write_json(out, summary)
    print(f"wrote {out}")
    print(json.dumps(summary))
    return 0


def _spread(runs: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-metric values, median and quartiles over repeated runs."""
    metrics: Dict[str, Any] = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, q2, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else (values[0],) * 3)
        metrics[name] = {
            "unit": runs[0]["metrics"][name]["unit"], "values": values,
            "median": q2, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / q2 if q2 else 0.0,
        }
    return {"runs": len(runs),
            "correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
