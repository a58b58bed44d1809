"""Maximal-resiliency search (Fig. 7(a)).

The paper reports the *maximum possible resiliency* of a SCADA system:
the largest failure budget under which the property still holds.
Resiliency is monotone — enlarging the budget can only admit more
threat vectors — so galloping + binary search over the budget is sound
(the shared :func:`~repro.core.search.galloping_max`).

These functions accept either a
:class:`~repro.core.analyzer.ScadaAnalyzer` (the historical API) or a
:class:`~repro.engine.VerificationEngine`; either way every query runs
through an engine on the ``assumption`` path: a search is exactly the
workload that path is built for — dozens of queries differing only in
the budget bound, answered by one solver whose learned clauses
persist.
"""

from __future__ import annotations

from typing import Optional, Union

from ..core.analyzer import ScadaAnalyzer
from ..core.search import SearchBounds
from ..core.specs import Property
from ..engine import VerificationEngine
from ..sat.limits import Limits

__all__ = [
    "max_total_resiliency", "max_ied_resiliency", "max_rtu_resiliency",
    "max_total_resiliency_bounds",
]

Verifier = Union[ScadaAnalyzer, VerificationEngine]


def _engine(analyzer: Verifier) -> VerificationEngine:
    engine = VerificationEngine.wrap(analyzer)
    if engine.backend_name == "assumption":
        return engine
    return VerificationEngine(engine.network, engine.problem,
                              backend="assumption", lint=False,
                              reference=engine.reference)


def max_total_resiliency(analyzer: Verifier,
                         prop: Property = Property.OBSERVABILITY,
                         r: int = 1,
                         max_conflicts: Optional[int] = None,
                         limits: Optional[Limits] = None,
                         screen: bool = True) -> int:
    """Largest total k such that the k-resilient property holds.

    With *limits*, an UNKNOWN probe is neither bound: the search raises
    :exc:`~repro.sat.ResourceLimitReached` carrying the sound bracket
    (use :func:`max_total_resiliency_bounds` to get the bracket without
    the exception).
    """
    return _engine(analyzer).max_total_resiliency(
        prop=prop, r=r, max_conflicts=max_conflicts, limits=limits,
        screen=screen)


def max_total_resiliency_bounds(
        analyzer: Verifier,
        prop: Property = Property.OBSERVABILITY,
        r: int = 1,
        max_conflicts: Optional[int] = None,
        limits: Optional[Limits] = None,
        screen: bool = True) -> SearchBounds:
    """Sound ``[lower, upper]`` bracket on the maximal total budget.

    With *screen* (the default) the structural pass seeds the bracket;
    ``screen=False`` forces a solver-only search.
    """
    return _engine(analyzer).max_total_resiliency_bounds(
        prop=prop, r=r, max_conflicts=max_conflicts, limits=limits,
        screen=screen)


def max_ied_resiliency(analyzer: Verifier,
                       prop: Property = Property.OBSERVABILITY,
                       k2: int = 0, r: int = 1,
                       max_conflicts: Optional[int] = None,
                       limits: Optional[Limits] = None,
                       screen: bool = True) -> int:
    """Largest k1 with the (k1, k2)-resilient property holding."""
    return _engine(analyzer).max_ied_resiliency(
        prop=prop, k2=k2, r=r, max_conflicts=max_conflicts, limits=limits,
        screen=screen)


def max_rtu_resiliency(analyzer: Verifier,
                       prop: Property = Property.OBSERVABILITY,
                       k1: int = 0, r: int = 1,
                       max_conflicts: Optional[int] = None,
                       limits: Optional[Limits] = None,
                       screen: bool = True) -> int:
    """Largest k2 with the (k1, k2)-resilient property holding."""
    return _engine(analyzer).max_rtu_resiliency(
        prop=prop, k1=k1, r=r, max_conflicts=max_conflicts, limits=limits,
        screen=screen)
