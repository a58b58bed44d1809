"""The service wire protocol: payload parsing and result shaping.

Everything the daemon reads from or writes to a client lives here, so
the HTTP layer stays a thin transport and the session/job layers work
with the same typed objects (:class:`~repro.core.specs.ResiliencySpec`,
:class:`~repro.sat.Limits`) as the rest of the engine.

Verdict payloads carry an ``exit_code`` field mirroring the CLI
convention exactly — **0** the property holds, **1** a threat vector
exists, **3** UNKNOWN (a resource budget expired or the job was
cancelled via cooperative interrupt) — so a script driving the service
and a script driving ``repro verify`` branch on the same values.
"""

from __future__ import annotations

import enum
import math
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.results import Status, ThreatVector, VerificationResult
from ..core.search import SearchBounds
from ..core.specs import Property, ResiliencySpec
from ..sat.limits import Limits

__all__ = [
    "EXIT_HOLDS",
    "EXIT_THREAT",
    "EXIT_UNKNOWN",
    "JobKind",
    "JobState",
    "ServiceError",
    "bounds_payload",
    "cancelled_payload",
    "limits_from_payload",
    "limits_key",
    "max_resiliency_payload",
    "reject_removed_fields",
    "result_payload",
    "spec_from_payload",
    "threat_payload",
    "vectors_payload",
]

#: Exit-code convention shared with the CLI (see :mod:`repro.cli`).
EXIT_HOLDS = 0
EXIT_THREAT = 1
EXIT_UNKNOWN = 3


class ServiceError(Exception):
    """A client-visible error with an HTTP status and stable code.

    The daemon maps it to ``{"error": {"code": ..., "message": ...}}``
    with the carried status; anything *not* a ``ServiceError`` escaping
    a handler is a 500 with the exception type as the code.
    """

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def payload(self) -> Dict[str, Any]:
        return {"error": {"code": self.code, "message": self.message}}


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED,
                        JobState.CANCELLED)


class JobKind(enum.Enum):
    """What a job asks the engine to do."""

    VERIFY = "verify"
    ENUMERATE = "enumerate"
    MAX_RESILIENCY = "max-resiliency"


def _positive_int(payload: Mapping[str, Any], field: str,
                  allow_zero: bool = True) -> Optional[int]:
    value = payload.get(field)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < 0 or (value == 0 and not allow_zero):
        raise ServiceError(400, "bad-spec",
                           f"field {field!r} must be a non-negative "
                           f"integer, got {value!r}")
    return value


def spec_from_payload(payload: Mapping[str, Any]) -> ResiliencySpec:
    """Build a :class:`ResiliencySpec` from a request's ``spec`` object.

    Accepted fields: ``property`` (default ``observability``), either
    ``k`` or both ``k1``/``k2``, ``r`` (bad data, default 1), and
    ``link_k``.  Raises :class:`ServiceError` (400) on anything
    malformed, with a message the client can act on.
    """
    if not isinstance(payload, Mapping):
        raise ServiceError(400, "bad-spec", "'spec' must be an object")
    prop_value = payload.get("property", Property.OBSERVABILITY.value)
    try:
        prop = Property(prop_value)
    except ValueError:
        raise ServiceError(
            400, "bad-spec",
            f"unknown property {prop_value!r}; expected one of "
            f"{', '.join(p.value for p in Property)}") from None
    k = _positive_int(payload, "k")
    k1 = _positive_int(payload, "k1")
    k2 = _positive_int(payload, "k2")
    r = _positive_int(payload, "r")
    link_k = _positive_int(payload, "link_k")
    try:
        return ResiliencySpec.for_property(
            prop, r=1 if r is None else r, k=k, k1=k1, k2=k2,
            link_k=link_k)
    except ValueError as exc:
        raise ServiceError(400, "bad-spec", str(exc)) from None


#: Request fields the service no longer accepts: the server picks the
#: verification path, sizes each watcher's engine pool and runs every
#: search on the session's own engine.
REMOVED_FIELDS = ("backend", "engine_cache", "cold")


def reject_removed_fields(payload: Mapping[str, Any]) -> None:
    """Refuse a request naming a :data:`REMOVED_FIELDS` entry.

    Raises :class:`ServiceError` (400) before any parse, lint or engine
    work is spent on the request, so a client relying on the field
    learns it is gone instead of having it silently ignored.  Other
    unknown fields stay ignored.
    """
    for name in REMOVED_FIELDS:
        if name in payload:
            raise ServiceError(400, "bad-request",
                               f"field {name!r} is not accepted: the "
                               f"server chooses it")


def limits_from_payload(
        payload: Optional[Mapping[str, Any]]) -> Optional[Limits]:
    """Build :class:`Limits` from a request's ``limits`` object.

    Accepted fields: ``max_time`` (seconds), ``max_conflicts``,
    ``max_propagations``, ``max_memory_mb``.  ``None``/absent means the
    request asks for no budget of its own (the tenant policy may still
    impose one).
    """
    if payload is None:
        return None
    if not isinstance(payload, Mapping):
        raise ServiceError(400, "bad-limits", "'limits' must be an object")
    known = ("max_time", "max_conflicts", "max_propagations",
             "max_memory_mb")
    unknown = set(payload) - set(known)
    if unknown:
        raise ServiceError(400, "bad-limits",
                           f"unknown limit field(s): "
                           f"{', '.join(sorted(unknown))}")
    values: Dict[str, Any] = {}
    for field in known:
        value = payload.get(field)
        if value is None:
            continue
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not 0 <= value < math.inf:
            raise ServiceError(400, "bad-limits",
                               f"limit {field!r} must be a finite "
                               f"non-negative number, got {value!r}")
        values[field] = value
    if not values:
        return None
    if "max_conflicts" in values:
        values["max_conflicts"] = int(values["max_conflicts"])
    if "max_propagations" in values:
        values["max_propagations"] = int(values["max_propagations"])
    return Limits(**values)


def limits_key(limits: Optional[Limits]) -> Tuple[Any, ...]:
    """A hashable identity for a budget, for request coalescing.

    Two requests coalesce only when their *effective* budgets match —
    a 1-second query and an unbounded query must not share a solve, or
    the unbounded client would inherit the other's UNKNOWN.
    """
    if limits is None:
        return ()
    return (limits.max_time, limits.max_conflicts,
            limits.max_propagations, limits.max_memory_mb)


# ----------------------------------------------------------------------
# Result shaping
# ----------------------------------------------------------------------

def threat_payload(threat: ThreatVector) -> Dict[str, Any]:
    """A threat vector as a JSON-able object."""
    return {
        "ieds": sorted(threat.failed_ieds),
        "rtus": sorted(threat.failed_rtus),
        "links": [list(pair) for pair in sorted(threat.failed_links)],
        "undelivered_measurements":
            sorted(threat.undelivered_measurements),
        "uncovered_states": sorted(threat.uncovered_states),
        "minimal": threat.minimal,
        "size": threat.size,
    }


def result_payload(result: VerificationResult) -> Dict[str, Any]:
    """One verification verdict as the job's JSON result."""
    if result.status is Status.RESILIENT:
        exit_code = EXIT_HOLDS
    elif result.status is Status.THREAT_FOUND:
        exit_code = EXIT_THREAT
    else:
        exit_code = EXIT_UNKNOWN
    return {
        "status": result.status.value,
        "exit_code": exit_code,
        "spec": result.spec.describe(),
        "threat": (threat_payload(result.threat)
                   if result.threat is not None else None),
        "limit_reason": result.limit_reason,
        "backend": result.backend,
        "num_vars": result.num_vars,
        "num_clauses": result.num_clauses,
        "times": dict(result.phase_times),
        "stats": dict(result.stats),
    }


def vectors_payload(spec: ResiliencySpec, vectors: List[ThreatVector],
                    incomplete: bool = False,
                    limit_reason: Optional[str] = None) -> Dict[str, Any]:
    """An enumeration outcome as the job's JSON result."""
    if incomplete:
        exit_code = EXIT_UNKNOWN
    else:
        exit_code = EXIT_THREAT if vectors else EXIT_HOLDS
    return {
        "status": "incomplete" if incomplete else "complete",
        "exit_code": exit_code,
        "spec": spec.describe(),
        "count": len(vectors),
        "vectors": [threat_payload(vec) for vec in vectors],
        "limit_reason": limit_reason,
    }


def bounds_payload(bounds: SearchBounds) -> Dict[str, Any]:
    """A search bracket as a JSON-able object."""
    return {
        "lower": bounds.lower,
        "upper": bounds.upper,
        "exact": bounds.exact,
        "unknown_budgets": list(bounds.unknown_budgets),
        "describe": bounds.describe(),
    }


def max_resiliency_payload(prop_value: str, total: SearchBounds,
                           ied: SearchBounds,
                           rtu: SearchBounds) -> Dict[str, Any]:
    """The three maximal-resiliency brackets as the job's JSON result.

    Exit code 0 when every bracket is exact; 3 (UNKNOWN) when a probe
    budget expired and a bracket is sound but not tight — mirroring
    ``repro max-resiliency``.
    """
    exact = total.exact and ied.exact and rtu.exact
    return {
        "status": "complete" if exact else "incomplete",
        "exit_code": EXIT_HOLDS if exact else EXIT_UNKNOWN,
        "property": prop_value,
        "total": bounds_payload(total),
        "ied": bounds_payload(ied),
        "rtu": bounds_payload(rtu),
        "limit_reason": None if exact else "budget",
    }


def cancelled_payload(spec_text: str, reason: str) -> Dict[str, Any]:
    """The exit-code-3-equivalent payload of a cancelled job.

    A cancelled or disconnected request gets exactly what an expired
    budget would produce: UNKNOWN with ``limit_reason`` ``interrupt``,
    certifying nothing.
    """
    return {
        "status": Status.UNKNOWN.value,
        "exit_code": EXIT_UNKNOWN,
        "spec": spec_text,
        "threat": None,
        "limit_reason": "interrupt",
        "cancelled": True,
        "cancel_reason": reason,
    }
