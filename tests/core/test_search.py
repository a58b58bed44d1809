"""Three-valued galloping search: UNKNOWN is neither bound."""

import pytest

from repro.core import SearchBounds, galloping_max_bounded
from repro.sat import ResourceLimitReached


def _oracle(true_max, unknown_at=()):
    calls = []

    def check(k):
        calls.append(k)
        if k in unknown_at:
            return None
        return k <= true_max

    return check, calls


def test_exact_search_finds_maximum():
    check, calls = _oracle(true_max=5)
    bounds = galloping_max_bounded(check, 20)
    assert bounds == SearchBounds(lower=5, upper=5, unknown_budgets=())
    assert bounds.exact
    assert bounds.describe() == "5"
    # Galloping probes far fewer points than a linear scan would.
    assert len(calls) < 20


def test_never_holds_gives_negative_lower():
    check, _ = _oracle(true_max=-1)
    bounds = galloping_max_bounded(check, 10)
    assert bounds.exact and bounds.lower == -1


def test_unknown_probe_widens_the_bracket():
    # The oracle cannot decide k=3; the true max is 4.  The search must
    # report a bracket containing the truth, never a point verdict.
    check, _ = _oracle(true_max=4, unknown_at={3})
    bounds = galloping_max_bounded(check, 10)
    assert not bounds.exact
    assert bounds.lower <= 4 <= bounds.upper
    assert 3 in bounds.unknown_budgets
    assert "UNKNOWN" in bounds.describe()


def test_all_unknown_keeps_full_range():
    bounds = galloping_max_bounded(lambda k: None, 6)
    assert not bounds.exact
    assert bounds.lower == -1 and bounds.upper == 6


def test_facade_returns_lower_bound():
    check, _ = _oracle(true_max=2)
    assert galloping_max_bounded(check, 10).lower == 2


def test_unknown_at_zero_proves_nothing():
    bounds = galloping_max_bounded(lambda k: None if k == 0 else True, 8)
    assert bounds == SearchBounds(lower=-1, upper=8, unknown_budgets=(0,))


def test_monotone_exhaustive_against_linear_scan():
    for true_max in range(-1, 9):
        check, _ = _oracle(true_max=true_max)
        bounds = galloping_max_bounded(check, 8)
        expected = min(true_max, 8)
        assert bounds.exact and bounds.lower == expected, true_max


# ----------------------------------------------------------------------
# Bracket seeding (the structural screen feeds known lower bounds)
# ----------------------------------------------------------------------

def test_seeded_lower_bound_is_never_reprobed():
    check, calls = _oracle(true_max=7)
    bounds = galloping_max_bounded(check, 20, lower=4)
    assert bounds.exact and bounds.lower == 7
    # The seed is trusted: no probe at or below it.
    assert all(k > 4 for k in calls)


def test_seed_equal_to_upper_needs_zero_probes():
    check, calls = _oracle(true_max=9)
    bounds = galloping_max_bounded(check, 5, lower=5)
    assert bounds == SearchBounds(lower=5, upper=5)
    assert calls == []


def test_seed_above_upper_raises():
    check, _ = _oracle(true_max=9)
    with pytest.raises(ValueError):
        galloping_max_bounded(check, 3, lower=4)


def test_negative_upper_probes_nothing():
    check, calls = _oracle(true_max=9)
    assert galloping_max_bounded(check, -1) == SearchBounds(-1, -1)
    assert calls == []


def test_seeded_exhaustive_against_linear_scan():
    for true_max in range(0, 9):
        for seed in range(0, true_max + 1):
            check, calls = _oracle(true_max=true_max)
            bounds = galloping_max_bounded(check, 10, lower=seed)
            assert bounds.exact and bounds.lower == true_max, (true_max,
                                                               seed)
            assert all(k > seed for k in calls)


def test_unseeded_call_matches_legacy_behavior():
    check, calls = _oracle(true_max=3)
    seeded = galloping_max_bounded(check, 10, lower=-1)
    check2, _ = _oracle(true_max=3)
    legacy = galloping_max_bounded(check2, 10)
    assert seeded == legacy
    assert 0 in calls  # the unseeded search still starts at zero


def test_value_reads_exact_maximum_and_raises_on_inexact():
    check, _ = _oracle(true_max=2)
    assert galloping_max_bounded(check, 10).value == 2
    assert SearchBounds(-1, -1).value == -1
    inexact = galloping_max_bounded(lambda k: None if k == 3 else k < 5,
                                    10)
    with pytest.raises(ResourceLimitReached) as excinfo:
        inexact.value
    assert excinfo.value.bounds == inexact
    assert "UNKNOWN" in str(excinfo.value)
