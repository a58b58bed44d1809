"""The z3py-style Solver facade."""

import pytest

from repro.sat import Limits
from repro.smt import (
    AtMost,
    Bool,
    Bools,
    Implies,
    Not,
    Or,
    Result,
    Solver,
)

a, b, c = Bools("a b c")


def test_check_sat_and_model():
    s = Solver()
    s.add(Or(a, b), Not(a))
    assert s.check() == Result.SAT
    model = s.model()
    assert model[b] is True
    assert model[a] is False


def test_check_unsat():
    s = Solver()
    s.add(a, Not(a))
    assert s.check() == Result.UNSAT


def test_model_before_check_raises():
    s = Solver()
    with pytest.raises(RuntimeError):
        s.model()


def test_result_not_boolean():
    with pytest.raises(TypeError):
        bool(Result.SAT)


def test_assumptions_and_core():
    s = Solver()
    s.add(Implies(a, b))
    assert s.check(a, Not(b)) == Result.UNSAT
    core = s.unsat_core()
    assert set(core) <= {a, Not(b)}
    assert core
    assert s.check(a) == Result.SAT
    assert s.model()[b] is True


def test_push_pop_scopes():
    s = Solver()
    s.add(Or(a, b))
    s.push()
    s.add(Not(a), Not(b))
    assert s.check() == Result.UNSAT
    s.pop()
    assert s.check() == Result.SAT
    s.push()
    s.add(Not(a))
    assert s.check() == Result.SAT
    assert s.model()[b] is True
    s.pop()


def test_nested_push_pop():
    s = Solver()
    s.push()
    s.add(a)
    s.push()
    s.add(Not(a))
    assert s.check() == Result.UNSAT
    s.pop()
    assert s.check() == Result.SAT
    s.pop()
    assert s.check() == Result.SAT


def test_pop_without_push_raises():
    with pytest.raises(RuntimeError):
        Solver().pop()


def test_assertions_listing():
    s = Solver()
    s.add(a)
    s.push()
    s.add(b)
    assert s.assertions() == [a, b]
    s.pop()
    assert s.assertions() == [a]


def test_statistics_accumulate():
    s = Solver()
    s.add(Or(a, b), AtMost([a, b, c], 1))
    assert s.check() == Result.SAT
    stats = s.statistics
    assert stats.checks == 1
    assert stats.num_vars > 0
    assert stats.check_time >= 0.0
    assert "vars" in repr(stats)


def test_unknown_on_budget():
    # Pigeonhole encoded through terms; 1 conflict cannot finish.
    holes = 6
    pigeons = holes + 1
    vars_ = {(p, h): Bool(f"p{p}h{h}")
             for p in range(pigeons) for h in range(holes)}
    s = Solver()
    for p in range(pigeons):
        s.add(Or(*[vars_[p, h] for h in range(holes)]))
    for h in range(holes):
        s.add(AtMost([vars_[p, h] for p in range(pigeons)], 1))
    assert s.check(limits=Limits(max_conflicts=1)) == Result.UNKNOWN
    assert s.check() == Result.UNSAT


def test_add_non_term_raises():
    with pytest.raises(TypeError):
        Solver().add("a")


def test_model_true_variables():
    s = Solver()
    s.add(a, Not(b))
    assert s.check() == Result.SAT
    assert "a" in s.model().true_variables()
    assert "b" not in s.model().true_variables()
