"""Model enumeration (AllSAT) with projection.

Threat-space analysis (Fig. 7(b) of the paper) needs *all* threat
vectors, not just one.  This module enumerates satisfying assignments of
a solver projected onto a chosen variable set, blocking each found
projection with a clause so it is not reported twice.

The check / extract / block loop is the same at every level of the
stack — raw projected cubes here, decoded
:class:`~repro.core.results.ThreatVector` objects in
:mod:`repro.core.incremental` and :mod:`repro.core.analyzer` — so the
loop itself is factored into :func:`drive_enumeration`.  It follows the
three-valued convention of :mod:`repro.sat.limits`: an expired budget
raises :exc:`~repro.sat.limits.ResourceLimitReached` carrying every
result found before the limit (*partial-model salvage*) and the
:class:`~repro.sat.limits.LimitReason` naming the spent budget, never a
bare ``RuntimeError`` that discards completed work.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

from .limits import LimitReason, Limits, ResourceLimitReached
from .solver import SatSolver

__all__ = ["drive_enumeration", "enumerate_models", "count_models"]

T = TypeVar("T")


def drive_enumeration(
    check: Callable[[], Optional[bool]],
    extract: Callable[[], T],
    block: Callable[[T], bool],
    limit: Optional[int] = None,
    what: str = "model",
    limit_reason: Optional[Callable[[], Optional[LimitReason]]] = None,
) -> Iterator[T]:
    """The generic AllSAT loop: check, extract, block, repeat.

    *check* runs one (bounded) satisfiability query and returns the
    three-valued answer — ``True`` (a model is loaded), ``False``
    (space exhausted), ``None`` (budget expired).  *extract* decodes
    the loaded model into a result; *block* excludes it from future
    checks and returns ``False`` to end the enumeration early (e.g.
    when nothing more minimal can exist).  *limit* bounds the number of
    results; ``None`` enumerates all.

    On a ``None`` check the driver raises
    :exc:`~repro.sat.limits.ResourceLimitReached` whose ``partial``
    holds every result produced so far (they were also already yielded)
    and whose ``reason`` comes from *limit_reason*, so a bounded run
    still salvages its completed work.
    """
    found: List[T] = []
    while limit is None or len(found) < limit:
        result = check()
        if result is None:
            reason = limit_reason() if limit_reason is not None else None
            raise ResourceLimitReached(
                f"solver budget exhausted during {what} enumeration "
                f"({len(found)} result(s) found before the limit)",
                reason=reason,
                partial=list(found))
        if not result:
            return
        item = extract()
        found.append(item)
        yield item
        if not block(item):
            return


def enumerate_models(
    solver: SatSolver,
    projection: Sequence[int],
    limit: Optional[int] = None,
    assumptions: Sequence[int] = (),
    limits: Optional[Limits] = None,
) -> Iterator[List[int]]:
    """Yield models projected onto *projection* (positive variable ids).

    Each yielded model is the list of DIMACS literals over the projection
    variables (``v`` if true, ``-v`` if false).  After each model, a
    blocking clause over the projection is added to *solver*, so the
    enumeration has the side effect of permanently excluding the found
    projections.

    ``limit`` bounds the number of models; ``None`` enumerates all.
    *limits* bounds each individual solve; an expired budget raises
    :exc:`~repro.sat.limits.ResourceLimitReached` carrying the models
    already found and the expired budget's
    :class:`~repro.sat.limits.LimitReason`.
    """

    def check() -> Optional[bool]:
        return solver.solve(assumptions=assumptions, limits=limits)

    def extract() -> List[int]:
        return [v if solver.model_value(v) else -v for v in projection]

    def block(cube: List[int]) -> bool:
        return solver.add_clause([-lit for lit in cube])

    return drive_enumeration(check, extract, block, limit=limit,
                             what="projected model",
                             limit_reason=lambda: solver.limit_reason)


def count_models(
    solver: SatSolver,
    projection: Sequence[int],
    assumptions: Sequence[int] = (),
    limit: Optional[int] = None,
) -> int:
    """Count the projected models (up to *limit*, if given)."""
    return sum(1 for _ in enumerate_models(
        solver, projection, limit=limit, assumptions=assumptions))


def enumerate_filtered(
    solver: SatSolver,
    projection: Sequence[int],
    keep: Callable[[List[int]], bool],
    limit: Optional[int] = None,
) -> List[List[int]]:
    """Enumerate projected models, retaining those accepted by *keep*."""
    out: List[List[int]] = []
    for cube in enumerate_models(solver, projection, limit=limit):
        if keep(cube):
            out.append(cube)
    return out
