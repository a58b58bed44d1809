"""Threat-space analysis (Fig. 7(b)).

The threat space of a resiliency specification is the set of threat
vectors violating it.  The paper reports its size as a function of the
SCADA hierarchy level and the specification; we count *minimal* threat
vectors via blocking-clause enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from ..core.analyzer import ScadaAnalyzer
from ..core.results import ThreatVector
from ..core.specs import ResiliencySpec
from ..engine import VerificationEngine
from ..obs.tracer import count as obs_count
from ..sat.limits import Limits, ResourceLimitReached

__all__ = ["ThreatSpace", "threat_space"]


@dataclass
class ThreatSpace:
    """The enumerated threat space of one specification.

    ``truncated`` means the caller's ``limit`` cut the enumeration
    short; ``incomplete`` means a solver resource budget expired
    mid-enumeration (``limit_reason`` names which one) and ``vectors``
    holds only what was found before it.  Either way ``size`` is a
    lower bound on the true threat-space size, never an overcount.
    ``screened`` means the structural pass proved the space empty and
    the enumeration never ran; the (empty) result is exact.
    """

    spec: ResiliencySpec
    vectors: List[ThreatVector]
    truncated: bool = False
    incomplete: bool = False
    limit_reason: Optional[str] = None
    screened: bool = False

    @property
    def size(self) -> int:
        return len(self.vectors)

    @property
    def exact(self) -> bool:
        """True when every minimal vector was enumerated."""
        return not (self.truncated or self.incomplete)

    def by_size(self) -> dict:
        """Histogram: number of failed devices → vector count."""
        histogram: dict = {}
        for vector in self.vectors:
            histogram[vector.size] = histogram.get(vector.size, 0) + 1
        return dict(sorted(histogram.items()))

    def __repr__(self) -> str:
        marker = "+" if not self.exact else ""
        return (f"ThreatSpace({self.spec.describe()}: "
                f"{self.size}{marker} vectors)")


def threat_space(analyzer: Union[ScadaAnalyzer, VerificationEngine],
                 spec: ResiliencySpec,
                 limit: Optional[int] = None,
                 minimal: bool = True,
                 limits: Optional[Limits] = None,
                 screen: bool = True) -> ThreatSpace:
    """Enumerate the (minimal) threat space of *spec*.

    Accepts a :class:`ScadaAnalyzer` or a :class:`VerificationEngine`;
    enumeration runs on the engine's path (an analyzer is wrapped in a
    fresh-path engine).

    *limits* bounds every individual solve.  An expired budget does not
    discard the work done: the vectors found so far come back in a
    :class:`ThreatSpace` flagged ``incomplete``.

    With *screen* (the default), the structural pass first brackets the
    minimal attack cardinality; when its certified lower bound already
    exceeds the spec's failure budget the space is provably empty and
    no solver ever runs (the result is flagged ``screened``).  Link
    budgets are outside the structural model, so specs with ``link_k``
    are never screened.
    """
    engine = VerificationEngine.wrap(analyzer)
    if screen and spec.link_k is None:
        bounds = engine.structural().attack_bounds(spec.property, r=spec.r)
        if bounds.certified and spec.budget.max_failures < bounds.lower:
            obs_count("graphs.screen.enumerations_pruned")
            return ThreatSpace(spec=spec, vectors=[], screened=True)
    try:
        vectors = engine.enumerate_threat_vectors(
            spec, limit=limit, minimal=minimal, limits=limits)
    except ResourceLimitReached as exc:
        partial = [v for v in (exc.partial or [])
                   if isinstance(v, ThreatVector)]
        return ThreatSpace(
            spec=spec, vectors=partial, incomplete=True,
            limit_reason=exc.reason.value if exc.reason else None)
    truncated = limit is not None and len(vectors) >= limit
    return ThreatSpace(spec=spec, vectors=vectors, truncated=truncated)
