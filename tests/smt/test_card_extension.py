"""Extendable counters and assumption-gated budgets vs brute force.

Exhaustive over every input pattern for n <= 6 (and every bound / raise
sequence), these tests pin the contract the assumption path rests on:

* the counter agrees with the brute-force count for all k and both
  polarities (at-most and at-least),
* :meth:`raise_bound` is monotone — growing a counter never changes the
  meaning of the outputs that already existed, and the grown counter is
  indistinguishable from one built directly at the larger bound,
* a :class:`~repro.smt.BudgetHandle` selector, passed as an assumption,
  admits exactly the binomial number of models its bound allows.
"""

import itertools

import pytest

from repro.sat import CNF, SatSolver
from repro.smt import Bools, Solver
from repro.smt.cardinality import Totalizer
from repro.smt.solver import Result

#: Every :class:`~repro.smt.cardinality.CardinalityCounter`
#: implementation.
COUNTERS = [Totalizer]


def _counter_id(cls):
    return cls.__name__


def _model_value(cnf, fixed, lit):
    """The forced value of *lit* under the fixed input pattern."""
    solver = SatSolver()
    while solver.num_vars < cnf.num_vars:
        solver.new_var()
    for clause in cnf.clauses:
        if not solver.add_clause(clause):
            return None
    assumptions = [v if val else -v for v, val in fixed.items()]
    if solver.solve(assumptions=assumptions) is not True:
        return None
    return solver.model_value(lit)


@pytest.mark.parametrize("counter_cls", COUNTERS, ids=_counter_id)
@pytest.mark.parametrize("n", range(1, 7))
def test_counters_agree_with_brute_force(counter_cls, n):
    """outputs[j-1] == (count >= j) for every pattern, j, and bound."""
    for bound in range(1, n + 1):
        cnf = CNF()
        inputs = cnf.new_vars(n)
        counter = counter_cls(cnf, inputs, bound=bound)
        assert len(counter.outputs) == bound
        for bits in itertools.product([False, True], repeat=n):
            fixed = dict(zip(inputs, bits))
            count = sum(bits)
            for j, out in enumerate(counter.outputs, start=1):
                value = _model_value(cnf, fixed, out)
                # at-least polarity: the output itself...
                assert value == (count >= j), (bound, bits, j)
                # ...and at-most polarity: its negation.
                assert (not value) == (count <= j - 1), (bound, bits, j)


@pytest.mark.parametrize("counter_cls", COUNTERS, ids=_counter_id)
@pytest.mark.parametrize("n", range(2, 7))
def test_raise_bound_monotone(counter_cls, n):
    """Raising the bound extends the outputs without disturbing them."""
    for start in range(1, n):
        for target in range(start + 1, n + 1):
            cnf = CNF()
            inputs = cnf.new_vars(n)
            counter = counter_cls(cnf, inputs, bound=start)
            before = list(counter.outputs)
            counter.raise_bound(target)
            assert counter.bound == target
            assert len(counter.outputs) == target
            # Old output literals are reused in place.
            assert counter.outputs[:start] == before
            # The grown counter allocates exactly as many variables as
            # one built directly at the target bound.
            direct = CNF()
            counter_cls(direct, direct.new_vars(n), bound=target)
            assert cnf.num_vars == direct.num_vars
            # And its outputs still mean "at least j inputs true".
            for bits in itertools.product([False, True], repeat=n):
                fixed = dict(zip(inputs, bits))
                count = sum(bits)
                for j, out in enumerate(counter.outputs, start=1):
                    assert _model_value(cnf, fixed, out) == (count >= j), \
                        (start, target, bits, j)


@pytest.mark.parametrize("counter_cls", COUNTERS, ids=_counter_id)
def test_raise_bound_stepwise_equals_direct(counter_cls):
    """Growing 1 -> 2 -> ... -> n step by step matches a direct build."""
    n = 6
    cnf = CNF()
    inputs = cnf.new_vars(n)
    counter = counter_cls(cnf, inputs, bound=1)
    for bound in range(2, n + 1):
        counter.raise_bound(bound)
    # Galloping overshoot and lowered bounds are both no-ops.
    counter.raise_bound(n + 5)
    counter.raise_bound(2)
    assert counter.bound == n
    direct = CNF()
    counter_cls(direct, direct.new_vars(n), bound=n)
    assert cnf.num_vars == direct.num_vars
    for bits in itertools.product([False, True], repeat=n):
        fixed = dict(zip(inputs, bits))
        count = sum(bits)
        for j, out in enumerate(counter.outputs, start=1):
            assert _model_value(cnf, fixed, out) == (count >= j)


def _count_models(solver, variables, assumptions):
    """Number of assignments to *variables* satisfiable under the
    assumptions (each candidate checked by fixing every variable)."""
    total = 0
    for bits in itertools.product([False, True], repeat=len(variables)):
        pattern = [v if bit else ~v for v, bit in zip(variables, bits)]
        with solver.scope():
            solver.add(*pattern)
            if solver.check(*assumptions) is Result.SAT:
                total += 1
    return total


def _binomial_at_most(n, k):
    from math import comb
    return sum(comb(n, i) for i in range(0, min(k, n) + 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_budget_handle_model_counts(n):
    """Assumption-gated bounds admit exactly the binomial model count.

    One solver, one handle, every k in both polarities — the exact
    workload of the assumption path, checked against brute force.
    """
    solver = Solver()
    variables = Bools(" ".join(f"x{i}" for i in range(n)))
    handle = solver.budget_handle(variables, "budget")
    for k in range(0, n + 1):
        at_most = _count_models(solver, variables, [handle.at_most(k)])
        assert at_most == _binomial_at_most(n, k), ("<=", n, k)
        at_least = _count_models(solver, variables, [handle.at_least(k)])
        assert at_least == 2 ** n - _binomial_at_most(n, k - 1), \
            (">=", n, k)
    # The selectors stay sound after the sweep touched every bound:
    # combine a lower and an upper bound in one query.
    if n >= 2:
        both = _count_models(
            solver, variables,
            [handle.at_least(1), handle.at_most(n - 1)])
        assert both == 2 ** n - 2


def test_budget_handle_weighted_multiset():
    """Duplicated terms count with multiplicity (weighted budgets)."""
    solver = Solver()
    a, b = Bools("a b")
    # cost(a) = 2, cost(b) = 3.
    handle = solver.budget_handle([a, a, b, b, b], "weighted")
    expected = {0: 1, 1: 1, 2: 2, 3: 3, 4: 3, 5: 4}
    for budget, models in expected.items():
        got = _count_models(solver, [a, b], [handle.at_most(budget)])
        assert got == models, (budget, got)
