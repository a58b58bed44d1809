"""Verification outcomes: threat vectors and results.

A ``sat`` answer from the solver is translated into a
:class:`ThreatVector` — the set of unavailable devices together with the
downstream evidence (undelivered measurements, uncovered states) that
explains *why* the property fails, mirroring the paper's "elaborate
result" discussion (§IV-A).  A :class:`VerificationResult` records which
of the engine's two verification paths answered (``fresh`` or
``assumption``) and that query's own solver statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from .specs import ResiliencySpec

__all__ = ["Status", "ThreatVector", "VerificationResult"]


class Status(enum.Enum):
    """Verdict of a resiliency verification.

    ``UNKNOWN`` is a first-class outcome, not an error: a resource
    budget (wall-clock, conflicts, propagations, memory, or a
    cooperative interrupt — see :class:`repro.sat.Limits`) expired
    before the solver decided.  It certifies *nothing*: an UNKNOWN is
    never resilient and never a threat.
    """

    #: unsat — no failure set within budget violates the property.
    RESILIENT = "resilient"
    #: sat — a threat vector exists.
    THREAT_FOUND = "threat-found"
    #: a solver resource budget expired before a verdict.
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class ThreatVector:
    """A set of device failures that violates the resiliency property."""

    failed_ieds: FrozenSet[int]
    failed_rtus: FrozenSet[int]
    failed_links: FrozenSet[Tuple[int, int]] = frozenset()
    undelivered_measurements: FrozenSet[int] = frozenset()
    uncovered_states: FrozenSet[int] = frozenset()
    minimal: bool = False

    @property
    def failed_devices(self) -> FrozenSet[int]:
        return self.failed_ieds | self.failed_rtus

    @property
    def size(self) -> int:
        return len(self.failed_devices) + len(self.failed_links)

    def describe(self, labeler=None) -> str:
        """Human-readable summary; *labeler* maps id → label."""
        if labeler is None:
            parts = ([f"IED {i}" for i in sorted(self.failed_ieds)]
                     + [f"RTU {i}" for i in sorted(self.failed_rtus)])
        else:
            parts = [labeler(i) for i in sorted(self.failed_devices)]
        parts += [f"link {a}-{b}" for a, b in sorted(self.failed_links)]
        if not parts:
            return "(no failures needed: the property already fails)"
        return ", ".join(parts)

    def __repr__(self) -> str:
        return f"ThreatVector({self.describe()})"


@dataclass
class VerificationResult:
    """The outcome of one resiliency verification run."""

    spec: ResiliencySpec
    status: Status
    threat: Optional[ThreatVector] = None
    solve_time: float = 0.0
    encode_time: float = 0.0
    #: Time decoding the solver model into a :class:`ThreatVector`
    #: (including minimization); 0.0 for resilient/unknown verdicts.
    extract_time: float = 0.0
    num_vars: int = 0
    num_clauses: int = 0
    details: Dict[str, object] = field(default_factory=dict)
    #: Which verification path produced this result
    #: ("fresh" or "assumption").
    backend: str = "fresh"
    #: Per-query solver search statistics (conflicts, decisions,
    #: propagations, restarts, check_time) — deltas attributable to this
    #: query even on a shared incremental solver.
    stats: Dict[str, float] = field(default_factory=dict)
    #: Which resource budget expired, when ``status`` is UNKNOWN
    #: (the :class:`repro.sat.LimitReason` value, e.g. ``"time"``).
    limit_reason: Optional[str] = None

    @property
    def is_resilient(self) -> bool:
        """True only for a decided RESILIENT verdict — never UNKNOWN."""
        return self.status is Status.RESILIENT

    @property
    def is_unknown(self) -> bool:
        return self.status is Status.UNKNOWN

    @property
    def total_time(self) -> float:
        return self.solve_time + self.encode_time + self.extract_time

    @property
    def phase_times(self) -> Dict[str, float]:
        """The encode/solve/extract split of :attr:`total_time`."""
        return {"encode": self.encode_time, "solve": self.solve_time,
                "extract": self.extract_time}

    def summary(self) -> str:
        if self.status is Status.RESILIENT:
            return (f"{self.spec.describe()}: HOLDS "
                    f"(unsat, {self.total_time:.3f}s)")
        if self.status is Status.THREAT_FOUND:
            assert self.threat is not None
            return (f"{self.spec.describe()}: VIOLATED by "
                    f"[{self.threat.describe()}] "
                    f"({self.total_time:.3f}s)")
        reason = (f"{self.limit_reason} limit" if self.limit_reason
                  else "budget exhausted")
        return (f"{self.spec.describe()}: UNKNOWN "
                f"({reason}, {self.total_time:.3f}s)")

    def __repr__(self) -> str:
        return f"VerificationResult({self.summary()})"
