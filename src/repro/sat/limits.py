"""Resource limits for solving.

Exact security-index / resiliency queries are NP-hard, and the paper's
own measurements (§VI) show solver time growing sharply with bus size
and budget ``k`` — so a production analyzer must *bound* every solve
rather than hope it finishes.  This module defines the vocabulary used
across the whole stack:

* :class:`Limits` — a declarative resource budget (wall-clock time,
  conflicts, propagations, and an optional memory estimate) accepted by
  :meth:`repro.sat.SatSolver.solve`, :meth:`repro.smt.Solver.check`,
  and every verification entry point above them;
* :class:`LimitReason` — *which* budget expired, reported alongside an
  ``UNKNOWN`` verdict;
* :exc:`ResourceLimitReached` — raised by drivers (searches,
  enumerations) that cannot return a sound answer once a query came
  back ``UNKNOWN``; carries the reason plus any partial results so a
  bounded run still yields its completed work.

An expired limit never produces a spurious ``SAT``/``UNSAT``: the
solver abandons the search and answers ``UNKNOWN``, and no consumer
treats ``UNKNOWN`` as a certificate (see ``docs/FORMAL_MODEL.md``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Any, Optional

__all__ = ["LimitReason", "Limits", "ResourceLimitReached"]


class LimitReason(enum.Enum):
    """Which resource budget ended a solve early."""

    #: The wall-clock budget (``Limits.max_time``) expired.
    TIME = "time"
    #: The conflict budget (``Limits.max_conflicts``) was exhausted.
    CONFLICTS = "conflicts"
    #: The propagation budget (``Limits.max_propagations``) was
    #: exhausted.
    PROPAGATIONS = "propagations"
    #: The estimated clause-database memory exceeded
    #: ``Limits.max_memory_mb``.
    MEMORY = "memory"
    #: :meth:`~repro.sat.SatSolver.interrupt` was called.
    INTERRUPT = "interrupt"


@dataclass(frozen=True)
class Limits:
    """A resource budget for one (or a sequence of) solver calls.

    Every field is optional; ``None`` means unbounded.  Instances are
    immutable and picklable, so a single ``Limits`` value can be
    shipped to sweep workers unchanged.

    ``max_time`` is wall-clock seconds *per solver call*.
    ``max_conflicts`` and ``max_propagations`` count per-call deltas,
    not lifetime totals, so a shared incremental solver gives every
    query the same budget.  ``max_memory_mb`` bounds a cheap *estimate*
    of the clause-database footprint (the solver cannot observe real
    RSS portably); it is polled at the same cadence as the clock.
    """

    max_time: Optional[float] = None
    max_conflicts: Optional[int] = None
    max_propagations: Optional[int] = None
    max_memory_mb: Optional[float] = None

    def __post_init__(self) -> None:
        # NaN passes a plain ``< 0`` check and then wins every min() in
        # merged(), turning a tenant ceiling into no bound at all.
        for name in ("max_time", "max_conflicts",
                     "max_propagations", "max_memory_mb"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{name} must be a finite non-negative "
                                 f"number, got {value!r}")

    @property
    def unbounded(self) -> bool:
        """True when no budget is set at all."""
        return (self.max_time is None and self.max_conflicts is None
                and self.max_propagations is None
                and self.max_memory_mb is None)

    def merged(self, other: Optional["Limits"]) -> "Limits":
        """The tighter of two budgets, field by field."""
        if other is None:
            return self

        def tight(a: Optional[float], b: Optional[float]) -> Any:
            if a is None:
                return b
            if b is None:
                return a
            return min(a, b)

        return Limits(
            max_time=tight(self.max_time, other.max_time),
            max_conflicts=tight(self.max_conflicts, other.max_conflicts),
            max_propagations=tight(self.max_propagations,
                                   other.max_propagations),
            max_memory_mb=tight(self.max_memory_mb, other.max_memory_mb),
        )

    def with_time(self, max_time: Optional[float]) -> "Limits":
        """This budget with the wall-clock field replaced."""
        return replace(self, max_time=max_time)

    def describe(self) -> str:
        parts = []
        if self.max_time is not None:
            parts.append(f"time<={self.max_time:g}s")
        if self.max_conflicts is not None:
            parts.append(f"conflicts<={self.max_conflicts}")
        if self.max_propagations is not None:
            parts.append(f"propagations<={self.max_propagations}")
        if self.max_memory_mb is not None:
            parts.append(f"memory<={self.max_memory_mb:g}MB")
        return ", ".join(parts) if parts else "unbounded"


class ResourceLimitReached(RuntimeError):
    """A driver could not complete because a solve came back UNKNOWN.

    Raised by multi-query drivers — maximal-resiliency search, threat
    enumeration, cheapest-attack search — whose overall answer would be
    unsound with a hole in it.  The exception carries everything the
    caller can still use:

    * ``reason`` — the :class:`LimitReason` of the offending query;
    * ``partial`` — results completed before the budget expired
      (e.g. the threat vectors already enumerated), or ``None``;
    * ``bounds`` — for searches, a
      :class:`~repro.core.search.SearchBounds` bracketing the true
      answer.
    """

    def __init__(self, message: str,
                 reason: Optional[LimitReason] = None,
                 partial: Optional[Any] = None,
                 bounds: Optional[Any] = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.partial = partial
        self.bounds = bounds
