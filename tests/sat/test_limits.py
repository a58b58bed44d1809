"""Resource-bounded solving: Limits, LimitReason, interrupts, Luby.

The invariant under test everywhere: an expired budget yields ``None``
(UNKNOWN) with the reason recorded — never a spurious True/False — and
a solve that *completes* under a budget is bit-identical to the
unbounded solve.
"""

import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.sat import LimitReason, Limits, ResourceLimitReached, SatSolver
from repro.sat.solver import _luby


def _pigeonhole(holes: int) -> SatSolver:
    """PHP(holes+1, holes): classic exponentially-hard unsat family."""
    s = SatSolver()
    P = {}
    v = 0
    for p in range(holes + 1):
        for h in range(holes):
            v += 1
            P[p, h] = v
    for p in range(holes + 1):
        s.add_clause([P[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                s.add_clause([-P[p1, h], -P[p2, h]])
    return s


# ----------------------------------------------------------------------
# Luby restart sequence vs an independent reference construction
# ----------------------------------------------------------------------

def _reference_luby_prefix(length: int) -> list:
    """Build the Luby series by its defining recursion.

    S(1) = [1]; S(k+1) = S(k) ++ S(k) ++ [2^k].  Concatenating forever
    yields 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    """
    series = [1]
    power = 1
    while len(series) < length:
        series = series + series + [2 ** power]
        power += 1
    return series[:length]


def test_luby_matches_reference_series():
    reference = _reference_luby_prefix(1000)
    assert [_luby(i) for i in range(1000)] == reference


@given(st.integers(min_value=0, max_value=100_000))
@settings(max_examples=200, deadline=None)
def test_luby_properties_at_arbitrary_index(i):
    value = _luby(i)
    # Every element is a power of two ...
    assert value >= 1 and value & (value - 1) == 0
    # ... and the subsequence ending each block is 2^k at index 2^(k+1)-2.
    if value > 1 and (i + 2) & (i + 1) == 0:
        assert value == (i + 2) // 2


# ----------------------------------------------------------------------
# Limits dataclass
# ----------------------------------------------------------------------

def test_limits_validation_and_unbounded():
    assert Limits().unbounded
    assert not Limits(max_conflicts=10).unbounded
    with pytest.raises(ValueError):
        Limits(max_time=-1.0)
    with pytest.raises(ValueError):
        Limits(max_conflicts=-5)


@pytest.mark.parametrize("field", ["max_time", "max_conflicts",
                                   "max_propagations", "max_memory_mb"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_limits_reject_non_finite(field, value):
    # NaN slips past a plain ``< 0`` check and then wins every min() in
    # merged(): a tenant's 5 s ceiling merged with it became unbounded.
    with pytest.raises(ValueError, match="finite"):
        Limits(**{field: value})


def test_limits_merge_takes_fieldwise_minimum():
    a = Limits(max_time=10.0, max_conflicts=500)
    b = Limits(max_time=2.0, max_propagations=1000)
    merged = a.merged(b)
    assert merged.max_time == 2.0
    assert merged.max_conflicts == 500
    assert merged.max_propagations == 1000
    assert merged.max_memory_mb is None


def test_limits_with_time_and_describe():
    limits = Limits(max_conflicts=100).with_time(1.5)
    assert limits.max_time == 1.5 and limits.max_conflicts == 100
    text = Limits(max_time=2.0, max_conflicts=7).describe()
    assert "2" in text and "7" in text
    assert Limits().describe() == "unbounded"


def test_resource_limit_reached_carries_context():
    exc = ResourceLimitReached("boom", reason=LimitReason.TIME,
                               partial=[1, 2])
    assert exc.reason is LimitReason.TIME
    assert exc.partial == [1, 2]
    assert exc.bounds is None


# ----------------------------------------------------------------------
# Budget enforcement in the CDCL loop
# ----------------------------------------------------------------------

def test_conflict_limit_sets_reason():
    s = _pigeonhole(6)
    assert s.solve(limits=Limits(max_conflicts=1)) is None
    assert s.limit_reason is LimitReason.CONFLICTS
    # The solver stays usable: the same instance decides unbounded.
    assert s.solve() is False
    assert s.limit_reason is None


def test_time_limit_sets_reason():
    s = _pigeonhole(9)
    started = time.monotonic()
    assert s.solve(limits=Limits(max_time=0.05)) is None
    elapsed = time.monotonic() - started
    assert s.limit_reason is LimitReason.TIME
    # Poll cadence is every 128 loop iterations: generous slack, but
    # nowhere near the minutes PHP(10,9) would actually take.
    assert elapsed < 5.0


def test_propagation_limit_sets_reason():
    s = _pigeonhole(6)
    assert s.solve(limits=Limits(max_propagations=10)) is None
    assert s.limit_reason is LimitReason.PROPAGATIONS


def test_memory_limit_sets_reason():
    s = _pigeonhole(6)
    # The instance's clause estimate alone exceeds a zero-MB budget.
    assert s.solve(limits=Limits(max_memory_mb=0.0001)) is None
    assert s.limit_reason is LimitReason.MEMORY


def test_interrupt_is_sticky_until_cleared():
    s = _pigeonhole(6)
    s.interrupt()
    assert s.interrupted
    assert s.solve() is None
    assert s.limit_reason is LimitReason.INTERRUPT
    # Sticky: a second solve without clearing is also abandoned.
    assert s.solve() is None
    s.clear_interrupt()
    assert not s.interrupted
    assert s.solve() is False


def test_merged_conflict_limits_stricter_wins():
    s = _pigeonhole(6)
    # The stricter of the two bounds wins.
    merged = Limits(max_conflicts=10_000_000).merged(
        Limits(max_conflicts=1))
    assert s.solve(limits=merged) is None
    assert s.limit_reason is LimitReason.CONFLICTS


# ----------------------------------------------------------------------
# Determinism: a budget that does not bind must not change the answer
# ----------------------------------------------------------------------

def test_completing_under_conflict_limit_is_identical():
    baseline = _pigeonhole(5)
    assert baseline.solve() is False
    needed = baseline.stats.conflicts

    limited = _pigeonhole(5)
    outcome = limited.solve(limits=Limits(max_conflicts=needed + 10))
    assert outcome is False
    assert limited.limit_reason is None
    assert limited.stats.conflicts == needed
    assert limited.stats.decisions == baseline.stats.decisions
    assert limited.stats.propagations == baseline.stats.propagations


def test_completing_under_generous_limits_is_identical():
    baseline = _pigeonhole(4)
    assert baseline.solve() is False

    limited = _pigeonhole(4)
    generous = Limits(max_time=600.0, max_conflicts=10_000_000,
                      max_propagations=10_000_000, max_memory_mb=4096.0)
    assert limited.solve(limits=generous) is False
    assert limited.limit_reason is None
    assert limited.stats.conflicts == baseline.stats.conflicts
    assert limited.stats.decisions == baseline.stats.decisions
