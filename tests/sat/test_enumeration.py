"""AllSAT enumeration with projection."""

import itertools

import pytest

from repro.sat import SatSolver, count_models, enumerate_models
from repro.sat.enumeration import drive_enumeration
from repro.sat.limits import LimitReason, Limits, ResourceLimitReached


def _fresh(clauses, num_vars):
    s = SatSolver()
    while s.num_vars < num_vars:
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    return s


def test_enumerate_all_models_of_or():
    s = _fresh([[1, 2]], 2)
    models = list(enumerate_models(s, [1, 2]))
    assert len(models) == 3
    assert sorted(map(tuple, models)) == sorted(
        {(1, 2), (1, -2), (-1, 2)})


def test_projection_collapses_irrelevant_vars():
    # var 3 is free; projecting onto {1} should give at most 2 models.
    s = _fresh([[1, 2], [3, -3, 2]], 3)
    models = list(enumerate_models(s, [1]))
    assert len(models) <= 2


def test_count_models_matches_truth_table():
    clauses = [[1, 2, 3], [-1, -2]]
    expected = 0
    for bits in itertools.product([False, True], repeat=3):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c)
               for c in clauses):
            expected += 1
    s = _fresh(clauses, 3)
    assert count_models(s, [1, 2, 3]) == expected


def test_limit_truncates():
    s = _fresh([], 3)
    models = list(enumerate_models(s, [1, 2, 3], limit=5))
    assert len(models) == 5


def test_enumeration_on_unsat_is_empty():
    s = _fresh([[1], [-1]], 1)
    assert list(enumerate_models(s, [1])) == []


def test_budget_exhaustion_raises():
    holes = 6
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
    with pytest.raises(RuntimeError):
        list(enumerate_models(s, [1], limits=Limits(max_conflicts=1)))


def _pigeonhole_solver(holes=6):
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


def test_budget_exhaustion_salvages_partial_models():
    # Free vars 1-2 admit quick models; the adjoined pigeonhole core
    # never conflicts while they flip, so after the first few models
    # the blocking clauses force the solver into the hard core and a
    # one-conflict budget expires mid-enumeration.
    s = _pigeonhole_solver()
    with pytest.raises(ResourceLimitReached) as excinfo:
        list(enumerate_models(s, [1], limits=Limits(max_conflicts=1)))
    exc = excinfo.value
    assert isinstance(exc, RuntimeError)
    assert exc.reason is LimitReason.CONFLICTS
    assert isinstance(exc.partial, list)
    assert "enumeration" in str(exc)


def test_limits_object_bounds_each_model():
    s = _pigeonhole_solver()
    with pytest.raises(ResourceLimitReached) as excinfo:
        list(enumerate_models(s, [1], limits=Limits(max_conflicts=1)))
    assert excinfo.value.reason is LimitReason.CONFLICTS


def test_drive_enumeration_partial_carries_yielded_items():
    answers = iter([True, True, None])
    items = iter(["a", "b"])
    seen = []
    gen = drive_enumeration(
        check=lambda: next(answers),
        extract=lambda: next(items),
        block=lambda item: True,
        what="demo",
        limit_reason=lambda: LimitReason.TIME,
    )
    with pytest.raises(ResourceLimitReached) as excinfo:
        for item in gen:
            seen.append(item)
    assert seen == ["a", "b"]
    assert excinfo.value.partial == ["a", "b"]
    assert excinfo.value.reason is LimitReason.TIME
    assert "demo" in str(excinfo.value)


def test_drive_enumeration_block_can_stop_early():
    answers = iter([True, True])
    items = iter(["a", "b"])
    out = list(drive_enumeration(
        check=lambda: next(answers),
        extract=lambda: next(items),
        block=lambda item: False,
    ))
    assert out == ["a"]


def test_drive_enumeration_limit_bounds_results():
    out = list(drive_enumeration(
        check=lambda: True,
        extract=lambda: "x",
        block=lambda item: True,
        limit=4,
    ))
    assert out == ["x"] * 4


def test_enumerate_filtered():
    from repro.sat.enumeration import enumerate_filtered
    s = _fresh([[1, 2]], 2)
    kept = enumerate_filtered(s, [1, 2], keep=lambda cube: cube[0] > 0)
    # Only models with var 1 true survive the filter.
    assert all(cube[0] == 1 for cube in kept)
    assert len(kept) == 2


def test_blocking_is_permanent():
    s = _fresh([], 2)
    list(enumerate_models(s, [1, 2]))
    # All four assignments are now blocked.
    assert s.solve() is False
