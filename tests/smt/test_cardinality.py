"""Exhaustive correctness of the cardinality encodings."""

import itertools

import pytest

from repro.sat import CNF, SatSolver
from repro.smt.cardinality import Totalizer


def _solve_with_fixed(cnf, fixed):
    """Solve cnf with input vars fixed to the given boolean pattern."""
    solver = SatSolver()
    while solver.num_vars < cnf.num_vars:
        solver.new_var()
    ok = True
    for clause in cnf.clauses:
        ok = solver.add_clause(clause) and ok
    if not ok:
        return False, None
    assumptions = [v if val else -v for v, val in fixed.items()]
    res = solver.solve(assumptions=assumptions)
    return res, solver


@pytest.mark.parametrize("n", range(1, 8))
def test_totalizer_outputs_count_exactly(n):
    """For every input pattern, output j is true iff count >= j."""
    cnf = CNF()
    inputs = cnf.new_vars(n)
    totalizer = Totalizer(cnf, inputs, bound=n)
    assert len(totalizer.outputs) == n
    for bits in itertools.product([False, True], repeat=n):
        fixed = dict(zip(inputs, bits))
        res, solver = _solve_with_fixed(cnf, fixed)
        assert res is True
        count = sum(bits)
        for j, out in enumerate(totalizer.outputs, start=1):
            assert solver.model_value(out) == (count >= j), (bits, j)


@pytest.mark.parametrize("n,bound", [(4, 2), (5, 3), (6, 2), (7, 4)])
def test_truncated_totalizer_saturates(n, bound):
    cnf = CNF()
    inputs = cnf.new_vars(n)
    totalizer = Totalizer(cnf, inputs, bound=bound)
    assert len(totalizer.outputs) == bound
    for bits in itertools.product([False, True], repeat=n):
        fixed = dict(zip(inputs, bits))
        res, solver = _solve_with_fixed(cnf, fixed)
        assert res is True
        count = sum(bits)
        for j, out in enumerate(totalizer.outputs, start=1):
            assert solver.model_value(out) == (count >= j)


def test_totalizer_empty_inputs():
    cnf = CNF()
    totalizer = Totalizer(cnf, [], bound=3)
    assert totalizer.outputs == []


def test_totalizer_rejects_bad_bound():
    with pytest.raises(ValueError):
        Totalizer(CNF(), [1], bound=0)


def test_totalizer_with_negated_literals():
    """Counting works over negative literals too."""
    cnf = CNF()
    inputs = cnf.new_vars(4)
    totalizer = Totalizer(cnf, [-v for v in inputs], bound=4)
    for bits in itertools.product([False, True], repeat=4):
        fixed = dict(zip(inputs, bits))
        res, solver = _solve_with_fixed(cnf, fixed)
        assert res is True
        count = sum(1 for bit in bits if not bit)
        for j, out in enumerate(totalizer.outputs, start=1):
            assert solver.model_value(out) == (count >= j)
