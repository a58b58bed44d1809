"""Scalability sweep drivers (Fig. 5 and Fig. 6).

The paper measures verification time against problem size (bus count)
and hierarchy level, separating ``sat`` (threat found) from ``unsat``
(resilient) runs: for a given instance the budget ``k*`` at which the
system is maximally resilient yields the slowest *unsat*, and ``k*+1``
yields a *sat* — timing both reproduces the paper's two curves on
principled points rather than arbitrary budgets.

Every instance is measured through a fresh-path
:class:`~repro.engine.VerificationEngine`, and whole sweeps fan out
across a process pool via :class:`~repro.engine.SweepExecutor`
(``jobs=``) with deterministic, submission-ordered results.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.problem import ObservabilityProblem
from ..core.results import Status
from ..core.specs import Property, ResiliencySpec
from ..engine import SweepExecutor, SweepTaskError, VerificationEngine
from ..grid.ieee_cases import case_by_buses
from ..obs.tracer import span as obs_span
from ..sat.limits import Limits
from ..scada.generator import GeneratorConfig, generate_scada

__all__ = ["ScalingPoint", "ScalingSweep", "measure_instance",
           "sweep_bus_sizes", "sweep_hierarchy"]


@dataclass
class ScalingPoint:
    """Timing of one synthetic instance.

    Encoding sizes are recorded separately for the sat (``k*+1``) and
    unsat (``k*``) runs — the two encodings differ by one cardinality
    bound, and conflating them made scaling tables misleading.
    ``sat_stats``/``unsat_stats`` carry the last run's per-query solver
    statistics (conflicts, decisions, propagations, restarts).
    """

    bus_size: int
    hierarchy: int
    seed: int
    num_devices: int
    max_k: int
    sat_times: List[float] = field(default_factory=list)
    unsat_times: List[float] = field(default_factory=list)
    sat_num_vars: int = 0
    sat_num_clauses: int = 0
    unsat_num_vars: int = 0
    unsat_num_clauses: int = 0
    sat_stats: Dict[str, float] = field(default_factory=dict)
    unsat_stats: Dict[str, float] = field(default_factory=dict)
    #: Timed runs whose solver budget expired (UNKNOWN verdicts); such
    #: runs contribute to neither time series.
    unknown_runs: int = 0
    #: False when the max-resiliency search itself hit a budget and
    #: ``max_k`` is only the proven lower bound of the bracket.
    max_k_exact: bool = True

    @property
    def sat_time(self) -> float:
        return statistics.mean(self.sat_times) if self.sat_times else 0.0

    @property
    def unsat_time(self) -> float:
        return statistics.mean(self.unsat_times) if self.unsat_times else 0.0

    @property
    def num_vars(self) -> int:
        """Encoding size of the sat run (historical accessor)."""
        return self.sat_num_vars

    @property
    def num_clauses(self) -> int:
        """Encoding size of the sat run (historical accessor)."""
        return self.sat_num_clauses


@dataclass
class ScalingSweep:
    """A collection of scaling points with aggregation helpers."""

    prop: Property
    points: List[ScalingPoint] = field(default_factory=list)
    #: Tasks lost to crashes/hangs/exhausted retries; the sweep's other
    #: points are still valid (see ``SweepExecutor.map(on_error=...)``).
    failures: List[SweepTaskError] = field(default_factory=list)

    def aggregate(self, key: str) -> Dict[int, Dict[str, float]]:
        """Mean sat/unsat time grouped by ``bus_size`` or ``hierarchy``."""
        groups: Dict[int, List[ScalingPoint]] = {}
        for point in self.points:
            groups.setdefault(getattr(point, key), []).append(point)
        out: Dict[int, Dict[str, float]] = {}
        for value, pts in sorted(groups.items()):
            out[value] = {
                "sat_time": statistics.mean(p.sat_time for p in pts),
                "unsat_time": statistics.mean(p.unsat_time for p in pts),
                "devices": statistics.mean(p.num_devices for p in pts),
                "vars": statistics.mean(p.sat_num_vars for p in pts),
                "clauses": statistics.mean(p.sat_num_clauses for p in pts),
                "unsat_vars": statistics.mean(
                    p.unsat_num_vars for p in pts),
                "unsat_clauses": statistics.mean(
                    p.unsat_num_clauses for p in pts),
            }
        return out

    def format_table(self, key: str) -> str:
        rows = [f"{key:>10} | devices | sat time (s) | unsat time (s)"]
        rows.append("-" * len(rows[0]))
        for value, stats in self.aggregate(key).items():
            rows.append(
                f"{value:>10} | {stats['devices']:7.0f} | "
                f"{stats['sat_time']:12.3f} | {stats['unsat_time']:14.3f}")
        return "\n".join(rows)


def measure_instance(bus_size: int, hierarchy: int, seed: int,
                     prop: Property = Property.OBSERVABILITY,
                     runs: int = 3,
                     measurement_fraction: float = 0.7,
                     secure_fraction: float = 0.8,
                     limits: Optional[Limits] = None) -> ScalingPoint:
    """Generate one synthetic SCADA instance and time sat/unsat checks.

    For secured-observability sweeps pass ``secure_fraction=1.0`` so the
    maximal resiliency is non-degenerate (a system with insecure links
    fails secured observability with zero failures, which collapses the
    unsat series).

    ``limits`` bounds every individual solve.  If the max-resiliency
    search cannot be pinned down exactly within the budget, the point
    is measured at the search's proven lower bound and flagged with
    ``max_k_exact=False``; timed runs whose budget expires count in
    ``unknown_runs`` instead of a time series.
    """
    with obs_span("analysis.instance", bus_size=bus_size,
                  hierarchy=hierarchy, seed=seed):
        return _measure_instance(
            bus_size, hierarchy, seed, prop, runs, measurement_fraction,
            secure_fraction, limits)


def _measure_instance(bus_size: int, hierarchy: int, seed: int,
                      prop: Property, runs: int,
                      measurement_fraction: float, secure_fraction: float,
                      limits: Optional[Limits]) -> ScalingPoint:
    config = GeneratorConfig(
        measurement_fraction=measurement_fraction,
        hierarchy_level=hierarchy,
        secure_fraction=secure_fraction,
        seed=seed,
    )
    synthetic = generate_scada(case_by_buses(bus_size, seed=seed), config)
    problem = ObservabilityProblem.from_table(synthetic.table)
    engine = VerificationEngine(synthetic.network, problem,
                                backend="fresh")

    bounds = engine.max_resiliency(prop, limits=limits)
    max_k = bounds.lower
    point = ScalingPoint(
        bus_size=bus_size, hierarchy=hierarchy, seed=seed,
        num_devices=synthetic.num_devices, max_k=max_k,
        max_k_exact=bounds.exact,
    )
    unsat_spec = ResiliencySpec.for_property(prop, k=max(max_k, 0))
    sat_spec = ResiliencySpec.for_property(prop, k=max_k + 1)
    for _ in range(runs):
        unsat_result = engine.verify(unsat_spec, minimize=False,
                                     limits=limits)
        sat_result = engine.verify(sat_spec, minimize=False,
                                   limits=limits)
        if unsat_result.is_unknown or sat_result.is_unknown:
            point.unknown_runs += (int(unsat_result.is_unknown)
                                   + int(sat_result.is_unknown))
        if max_k >= 0 and unsat_result.status is Status.RESILIENT:
            point.unsat_times.append(unsat_result.total_time)
            point.unsat_num_vars = unsat_result.num_vars
            point.unsat_num_clauses = unsat_result.num_clauses
            point.unsat_stats = dict(unsat_result.stats)
        if sat_result.status is Status.THREAT_FOUND:
            point.sat_times.append(sat_result.total_time)
        point.sat_num_vars = sat_result.num_vars
        point.sat_num_clauses = sat_result.num_clauses
        point.sat_stats = dict(sat_result.stats)
    return point


@dataclass(frozen=True)
class _MeasureTask:
    """Picklable description of one sweep instance."""

    bus_size: int
    hierarchy: int
    seed: int
    prop: Property
    runs: int
    secure_fraction: float
    limits: Optional[Limits] = None


def _measure_task(task: _MeasureTask) -> ScalingPoint:
    return measure_instance(
        task.bus_size, task.hierarchy, task.seed, prop=task.prop,
        runs=task.runs, secure_fraction=task.secure_fraction,
        limits=task.limits)


def _run_sweep(tasks: List[_MeasureTask], prop: Property, jobs: int,
               task_timeout: Optional[float],
               retries: int) -> ScalingSweep:
    """Fan out measurement tasks, keeping survivors of any failures."""
    executor = SweepExecutor(jobs)
    outcomes = executor.map(_measure_task, tasks, timeout=task_timeout,
                            retries=retries, on_error="return")
    points = [p for p in outcomes if isinstance(p, ScalingPoint)]
    return ScalingSweep(prop=prop, points=points,
                        failures=list(executor.last_failures))


def sweep_bus_sizes(bus_sizes: Sequence[int],
                    prop: Property = Property.OBSERVABILITY,
                    seeds: Sequence[int] = (0, 1, 2),
                    hierarchy: int = 1,
                    runs: int = 3,
                    secure_fraction: float = 0.8,
                    jobs: int = 1,
                    limits: Optional[Limits] = None,
                    task_timeout: Optional[float] = None,
                    retries: int = 0) -> ScalingSweep:
    """Fig. 5: verification time vs problem size.

    ``limits`` bounds each solve inside an instance; ``task_timeout``
    bounds each whole instance's wall clock (pooled runs) and
    ``retries`` re-runs a crashed/hung instance in a fresh worker.  A
    lost instance lands in the sweep's ``failures`` instead of taking
    the other points with it.
    """
    tasks = [
        _MeasureTask(bus_size, hierarchy, seed, prop, runs,
                     secure_fraction, limits)
        for bus_size in bus_sizes
        for seed in seeds
    ]
    return _run_sweep(tasks, prop, jobs, task_timeout, retries)


def sweep_hierarchy(bus_size: int,
                    hierarchy_levels: Sequence[int],
                    prop: Property = Property.OBSERVABILITY,
                    seeds: Sequence[int] = (0, 1, 2),
                    runs: int = 3,
                    secure_fraction: float = 0.8,
                    jobs: int = 1,
                    limits: Optional[Limits] = None,
                    task_timeout: Optional[float] = None,
                    retries: int = 0) -> ScalingSweep:
    """Fig. 6: verification time vs hierarchy level.

    Fault-tolerance parameters as in :func:`sweep_bus_sizes`.
    """
    tasks = [
        _MeasureTask(bus_size, level, seed, prop, runs,
                     secure_fraction, limits)
        for level in hierarchy_levels
        for seed in seeds
    ]
    return _run_sweep(tasks, prop, jobs, task_timeout, retries)
