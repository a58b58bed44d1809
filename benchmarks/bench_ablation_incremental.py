"""Ablation — verification backends × sweep parallelism.

Three workloads exercise the engine's ablation axes:

* **backend axis** (Fig. 7(a)-style): maximal-resiliency search issues a
  sequence of budget-only-different queries.  ``fresh`` re-encodes per
  query; ``assumption`` encodes the delivery layer once and selects
  budgets with assumption literals over persistent extendable counters.
* **budget-sweep axis**: a >= 20-query sweep over failure budgets run
  on ``fresh`` vs ``assumption``, recording per-budget search effort and
  learned-clause retention — a fresh solver starts every query with an
  empty clause database, while assumption selection keeps every learned
  clause across budgets.
* **jobs axis** (Fig. 5(a)-style): a bus-size sweep fanned over a
  process pool must keep per-point outputs identical while reducing
  wall-clock on multicore hosts.

Besides pytest-benchmark timings, the final test writes the full
ablation matrix to ``benchmarks/results/ablation_backend_jobs.json``
and the per-budget retention series to
``benchmarks/results/ablation_budget_sweep.json``.

Setting ``BENCH_SMOKE=1`` switches to the paper's 5-bus case with a
tiny budget range — the CI smoke configuration, small enough to finish
in seconds while still crossing every backend.
"""

import json
import os
import time

import pytest

from repro.analysis import sweep_bus_sizes
from repro.core import ObservabilityProblem, Property, ResiliencySpec
from repro.engine import VerificationEngine
from repro.grid import case57
from repro.scada import GeneratorConfig, generate_scada

_results = {"backends": {}, "budget_sweep": {}, "sweep_jobs": {}}

#: The engine's two verification paths.
BACKEND_NAMES = ("fresh", "assumption")

SMOKE = os.environ.get("BENCH_SMOKE") == "1"
SWEEP_JOBS = (1,) if SMOKE else (1, 2)
#: Budgets visited per pass and number of passes; the non-smoke
#: configuration issues 2 x 10 = 20 queries per backend.
SWEEP_KS = tuple(range(4)) if SMOKE else tuple(range(10))
SWEEP_PASSES = 2


@pytest.fixture(scope="module")
def system():
    if SMOKE:
        from repro.cases import case_problem, fig3_network

        return fig3_network(), case_problem()
    synthetic = generate_scada(
        case57(),
        GeneratorConfig(measurement_fraction=0.8, dual_home_fraction=0.3,
                        seed=1))
    problem = ObservabilityProblem.from_table(synthetic.table)
    return synthetic.network, problem


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_backend_max_resiliency(benchmark, system, backend):
    network, problem = system

    def run():
        engine = VerificationEngine(network, problem, backend=backend,
                                    lint=False)
        return engine.max_resiliency(Property.OBSERVABILITY).value

    rounds = 1 if SMOKE else 3
    started = time.perf_counter()
    k_star = benchmark.pedantic(run, rounds=rounds, iterations=1)
    _results["backends"][backend] = {
        "k_star": k_star,
        "mean_time": (time.perf_counter() - started) / rounds,
    }


def _run_budget_sweep(network, problem, backend):
    """One >= 20-query budget sweep; per-query effort + retention."""
    engine = VerificationEngine(network, problem, backend=backend,
                                lint=False)
    shared_solver = backend == "assumption"
    queries = []
    retained = 0
    for sweep_pass in range(SWEEP_PASSES):
        for k in SWEEP_KS:
            result = engine.verify(ResiliencySpec.observability(k=k),
                                   minimize=False)
            stats = result.stats
            learned = int(stats.get("learned_clauses", 0))
            deleted = int(stats.get("deleted_clauses", 0))
            if shared_solver:
                retained += learned - deleted
            else:
                retained = learned - deleted
            queries.append({
                "pass": sweep_pass,
                "k": k,
                "status": result.status.value,
                "conflicts": int(stats.get("conflicts", 0)),
                "decisions": int(stats.get("decisions", 0)),
                "propagations": int(stats.get("propagations", 0)),
                "learned_clauses": learned,
                "deleted_clauses": deleted,
                "retained_clauses": retained,
                "encode_vars": result.num_vars,
                "encode_clauses": result.num_clauses,
                "check_time": stats.get("check_time", 0.0),
            })
    return {
        "queries": queries,
        "totals": {
            "num_queries": len(queries),
            "conflicts": sum(q["conflicts"] for q in queries),
            "decisions": sum(q["decisions"] for q in queries),
            "learned_clauses": sum(q["learned_clauses"] for q in queries),
            "final_retained_clauses": retained,
        },
    }


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_budget_sweep(benchmark, system, backend):
    network, problem = system
    row = benchmark.pedantic(
        lambda: _run_budget_sweep(network, problem, backend),
        rounds=1, iterations=1)
    _results["budget_sweep"][backend] = row


@pytest.mark.parametrize("jobs", SWEEP_JOBS)
def test_sweep_jobs(benchmark, jobs):
    def run():
        return sweep_bus_sizes([14, 30], seeds=(0, 1), runs=1, jobs=jobs)

    sweep = benchmark.pedantic(run, rounds=1, iterations=1)
    _results["sweep_jobs"][jobs] = {
        "points": [
            {
                "bus_size": p.bus_size,
                "seed": p.seed,
                "max_k": p.max_k,
                "sat_vars": p.sat_num_vars,
                "unsat_vars": p.unsat_num_vars,
            }
            for p in sweep.points
        ],
    }


def test_report_ablation(benchmark, results_dir, report):
    def make():
        backends = _results["backends"]
        lines = []
        for name, row in backends.items():
            lines.append(f"max-resiliency [{name:>12}]: "
                         f"k* = {row['k_star']}, "
                         f"mean {row['mean_time']:.3f}s")
        k_values = {row["k_star"] for row in backends.values()}
        if len(backends) == len(BACKEND_NAMES):
            assert len(k_values) == 1, "backends disagree on k*"
            lines.append("verdict parity across backends: True")
            fresh = backends["fresh"]["mean_time"]
            assumption = backends["assumption"]["mean_time"]
            lines.append(f"assumption speedup over fresh: "
                         f"{fresh / max(assumption, 1e-9):.2f}x")

        sweeps = _results["budget_sweep"]
        if len(sweeps) == len(BACKEND_NAMES):
            # Verdict parity query by query across the sweep.
            verdicts = {
                name: [q["status"] for q in row["queries"]]
                for name, row in sweeps.items()
            }
            assert verdicts["fresh"] == verdicts["assumption"], \
                "budget-sweep verdicts diverged"
            lines.append(f"budget sweep: "
                         f"{sweeps['fresh']['totals']['num_queries']} "
                         f"queries per backend, verdict parity: True")
            for name in BACKEND_NAMES:
                totals = sweeps[name]["totals"]
                lines.append(
                    f"budget sweep [{name:>12}]: "
                    f"conflicts {totals['conflicts']}, "
                    f"learned {totals['learned_clauses']}, "
                    f"retained {totals['final_retained_clauses']}")
            # With every learned clause usable across budgets the
            # assumption backend re-derives less and conflicts less
            # over the sweep than fresh solvers do.  Skipped in smoke
            # mode: the 5-bus sweep is too small for stable
            # search-effort comparisons.
            if not SMOKE:
                assert (sweeps["assumption"]["totals"]["conflicts"] <=
                        sweeps["fresh"]["totals"]["conflicts"]), \
                    "assumption backend needed more conflicts than fresh"
            payload = json.dumps(sweeps, indent=2, sort_keys=True,
                                 default=str)
            (results_dir / "ablation_budget_sweep.json").write_text(
                payload + "\n")

        jobs_rows = _results["sweep_jobs"]
        if len(jobs_rows) == len(SWEEP_JOBS):
            parity = all(jobs_rows[j]["points"] == jobs_rows[1]["points"]
                         for j in SWEEP_JOBS)
            assert parity, "parallel sweep diverged from serial"
            lines.append("sweep determinism across jobs: True")
        report("ablation_incremental", "\n".join(lines))
        payload = json.dumps(_results, indent=2, sort_keys=True,
                             default=str)
        (results_dir / "ablation_backend_jobs.json").write_text(
            payload + "\n")

    benchmark.pedantic(make, rounds=1, iterations=1)
