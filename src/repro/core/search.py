"""Monotone budget search shared by every max-resiliency consumer.

Resiliency is monotone in the failure budget — enlarging the budget can
only admit more threat vectors — so the largest holding budget can be
found with a galloping upper-bound probe followed by binary search.
This helper is the single implementation behind
:meth:`VerificationEngine.max_resiliency
<repro.engine.VerificationEngine.max_resiliency>`.

With resource-bounded solving the oracle is *three-valued*: a probe may
come back UNKNOWN when its budget expires.  UNKNOWN is **neither
bound** — it neither proves the budget holds nor that it fails — so
:func:`galloping_max_bounded` stops refining at the first UNKNOWN probe
and reports the sound bracket established so far as a
:class:`SearchBounds` instead of silently mis-bracketing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from ..sat.limits import ResourceLimitReached

__all__ = ["SearchBounds", "galloping_max_bounded"]


@dataclass(frozen=True)
class SearchBounds:
    """The sound bracket a (possibly budget-limited) search produced.

    ``lower`` is the largest budget *proven* to hold (-1 when not even
    k = 0 was proven); every budget above ``upper`` is *proven* to
    fail.  When ``lower == upper`` with no unknown probes the search is
    exact and the maximum is ``lower``; otherwise the true maximum lies
    somewhere in ``[lower, upper]`` and ``unknown_budgets`` lists the
    probes whose solves expired.
    """

    lower: int
    upper: int
    unknown_budgets: Tuple[int, ...] = ()

    @property
    def exact(self) -> bool:
        return self.lower == self.upper and not self.unknown_budgets

    @property
    def value(self) -> int:
        """The exact maximum; -1 when even k = 0 fails.

        Raises :exc:`~repro.sat.ResourceLimitReached` carrying this
        bracket when a probe's budget expired before the search pinned
        the maximum down.
        """
        if not self.exact:
            raise ResourceLimitReached(
                f"solver budget exhausted during the max-resiliency "
                f"search; maximum {self.describe()}",
                bounds=self)
        return self.lower

    def describe(self) -> str:
        if self.exact:
            return str(self.lower)
        return (f"in [{self.lower}, {self.upper}] "
                f"(UNKNOWN at k={list(self.unknown_budgets)})")


def galloping_max_bounded(check: Callable[[int], Optional[bool]],
                          upper: int, lower: int = -1) -> SearchBounds:
    """Bracket the largest k in [*lower*, *upper*] with ``check(k)`` true.

    *check* is a monotone three-valued oracle: ``True`` (holds),
    ``False`` (fails), or ``None`` (UNKNOWN — the probe's resource
    budget expired).  Gallops (1, 2, 4, ...) to find a violated budget
    first — real maximal resiliencies are small, and checks get much
    more expensive as the cardinality bound grows — then binary-searches
    the bracket.  An UNKNOWN probe is treated as *neither* bound:
    refinement stops and the bracket proven so far is returned.

    A caller with outside knowledge (e.g. the structural screening
    pass) seeds the bracket: *lower* asserts ``check`` holds up to and
    including that budget — no probe is ever issued at or below it —
    and *upper* that everything above fails.  With ``lower == upper``
    the maximum is already pinned and no probe runs at all.
    """
    if lower > upper:
        raise ValueError(
            f"seeded lower bound {lower} exceeds upper bound {upper}")
    if upper < 0:
        return SearchBounds(-1, -1)
    if lower == upper:
        return SearchBounds(lower, lower)
    if lower < 0:
        first = check(0)
        if first is None:
            return SearchBounds(-1, upper, (0,))
        if not first:
            return SearchBounds(-1, -1)
        lower = 0
    lo = lower      # largest budget proven (or asserted) to hold
    hi = upper      # largest budget not yet proven to fail
    step = 1
    while lo < hi:  # gallop for a failing budget
        probe = min(lo + step, hi)
        verdict = check(probe)
        if verdict is None:
            return SearchBounds(lo, hi, (probe,))
        if verdict:
            lo = probe
            step *= 2
        else:
            hi = probe - 1
            break
    while lo < hi:  # binary search inside the bracket
        mid = (lo + hi + 1) // 2
        verdict = check(mid)
        if verdict is None:
            return SearchBounds(lo, hi, (mid,))
        if verdict:
            lo = mid
        else:
            hi = mid - 1
    return SearchBounds(lo, lo)

