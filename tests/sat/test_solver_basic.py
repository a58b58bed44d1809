"""Deterministic unit tests for the CDCL solver."""

import pytest

from repro.sat import Limits, SatSolver
from repro.sat.solver import _luby


def test_empty_formula_is_sat():
    assert SatSolver().solve() is True


def test_unit_propagation_chain():
    s = SatSolver()
    s.add_clause([1])
    s.add_clause([-1, 2])
    s.add_clause([-2, 3])
    assert s.solve() is True
    assert s.model_value(1) and s.model_value(2) and s.model_value(3)


def test_simple_unsat():
    s = SatSolver()
    s.add_clause([1])
    assert s.add_clause([-1]) is False
    assert s.solve() is False


def test_empty_clause_poisons_solver():
    s = SatSolver()
    assert s.add_clause([]) is False
    assert s.solve() is False
    assert s.add_clause([1]) is False


def test_model_satisfies_clauses():
    clauses = [[1, 2, 3], [-1, -2], [-2, -3], [-1, -3], [2, 3]]
    s = SatSolver()
    for clause in clauses:
        s.add_clause(clause)
    assert s.solve() is True
    for clause in clauses:
        assert any(s.model_value(l) for l in clause)


def test_model_access_requires_sat():
    s = SatSolver()
    with pytest.raises(RuntimeError):
        _ = s.model


def test_incremental_solving():
    s = SatSolver()
    s.add_clause([1, 2])
    assert s.solve() is True
    s.add_clause([-1])
    assert s.solve() is True
    assert s.model_value(2)
    s.add_clause([-2])
    assert s.solve() is False


def test_max_conflicts_budget_returns_none():
    # A hard pigeonhole instance cannot finish within one conflict.
    s = SatSolver()
    holes = 6
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
    assert s.solve(limits=Limits(max_conflicts=1)) is None
    # And it is solvable without the budget.
    assert s.solve() is False


def test_pigeonhole_unsat():
    for holes in (2, 3, 4):
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
        assert s.solve() is False


def test_luby_sequence_prefix():
    assert [_luby(i) for i in range(9)] == [1, 1, 2, 1, 1, 2, 4, 1, 1]


def test_stats_are_tracked():
    s = SatSolver()
    s.add_clause([1, 2])
    s.add_clause([-1, 2])
    s.add_clause([1, -2])
    s.add_clause([-1, -2, 3])
    assert s.solve() is True
    stats = s.stats.as_dict()
    assert stats["propagations"] >= 1


def test_add_clause_at_nonzero_level_rejected():
    s = SatSolver()
    s.add_clause([1, 2])
    s._new_decision_level()
    with pytest.raises(RuntimeError):
        s.add_clause([3])


def test_learned_clause_db_reduction_triggers():
    """A hard instance must exercise clause learning, restarts, and DB
    reduction without losing soundness."""
    import random
    rng = random.Random(99)
    s = SatSolver()
    n = 60
    m = int(4.2 * n)  # near the random-3SAT threshold
    clauses = []
    for _ in range(m):
        vs = rng.sample(range(1, n + 1), 3)
        clause = [v if rng.random() < 0.5 else -v for v in vs]
        clauses.append(clause)
        s.add_clause(clause)
    outcome = s.solve()
    assert outcome in (True, False)
    if outcome:
        for clause in clauses:
            assert any(s.model_value(l) for l in clause)
    stats = s.stats.as_dict()
    assert stats["conflicts"] > 0
    assert stats["learned_clauses"] > 0


def test_many_incremental_rounds():
    """Alternating adds and solves must stay consistent."""
    import random
    rng = random.Random(5)
    s = SatSolver()
    n = 20
    added = []
    for _ in range(100):
        clause = [v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, n + 1), 3)]
        if not s.add_clause(clause):
            break
        added.append(clause)
        result = s.solve()
        if result is False:
            break
        for c in added:
            assert any(s.model_value(l) for l in c)
