"""DRUP-style proof logging and the independent RUP checker."""

import pytest

from repro.sat import SatSolver
from repro.sat.proof import ProofChecker, ProofError, check_unsat_proof


def _pigeonhole_solver(holes, proof=True):
    solver = SatSolver()
    if proof:
        solver.enable_proof()
    P = {}
    v = 0
    for p in range(holes + 1):
        for h in range(holes):
            v += 1
            P[p, h] = v
    for p in range(holes + 1):
        solver.add_clause([P[p, h] for h in range(holes)])
    for h in range(holes):
        for p1 in range(holes + 1):
            for p2 in range(p1 + 1, holes + 1):
                solver.add_clause([-P[p1, h], -P[p2, h]])
    return solver


@pytest.mark.parametrize("holes", [2, 3, 4, 5])
def test_pigeonhole_proofs_check(holes):
    solver = _pigeonhole_solver(holes)
    assert solver.solve() is False
    originals, learned = solver.proof
    assert check_unsat_proof(originals, learned)


def test_reduce_db_deletion_records_well_formed():
    # PHP(8, 7) runs past the first clause-DB reduction.
    solver = _pigeonhole_solver(7)
    assert solver.solve() is False
    deletions = solver.proof_deletions
    assert deletions
    assert all(isinstance(lit, int) and lit != 0
               for clause in deletions for lit in clause)


def test_trivial_unsat_proof():
    solver = SatSolver()
    solver.enable_proof()
    solver.add_clause([1])
    solver.add_clause([-1])
    assert solver.solve() is False
    originals, learned = solver.proof
    assert check_unsat_proof(originals, learned)


def test_proof_disabled_by_default():
    solver = SatSolver()
    solver.add_clause([1])
    assert solver.proof is None


def test_enable_proof_after_clauses_rejected():
    solver = SatSolver()
    solver.add_clause([1])
    with pytest.raises(RuntimeError):
        solver.enable_proof()


def test_non_rup_step_rejected():
    solver = _pigeonhole_solver(4)
    assert solver.solve() is False
    originals, learned = solver.proof
    corrupted = [[1]] + [list(c) for c in learned]
    with pytest.raises(ProofError):
        check_unsat_proof(originals, corrupted)


def test_incomplete_proof_rejected():
    solver = _pigeonhole_solver(4)
    assert solver.solve() is False
    originals, learned = solver.proof
    # Drop the tail of the proof: the final conflict can no longer be
    # derived by unit propagation alone.
    truncated = [list(c) for c in learned[: len(learned) // 4]]
    with pytest.raises(ProofError):
        check_unsat_proof(originals, truncated)


def test_checker_rup_semantics():
    checker = ProofChecker(3)
    checker.add_clause([1, 2])
    checker.add_clause([-1, -2])
    # [1] is implied-by-case-split territory but not RUP: assuming ¬1
    # propagates 2 and stops without conflict.
    assert not checker.is_rup([1])
    checker2 = ProofChecker(3)
    checker2.add_clause([1, 2])
    checker2.add_clause([-1, 3])
    checker2.add_clause([-2, 3])
    # [3] IS RUP here: ¬3 forces ¬1 and ¬2, conflicting with (1 ∨ 2).
    assert checker2.is_rup([3])


def test_checker_on_contradictory_db():
    checker = ProofChecker(1)
    checker.add_clause([1])
    checker.add_clause([-1])
    assert checker.is_rup([])


def test_facade_proof_validation():
    from repro.smt import Bool, Not, Result, Solver
    a = Bool("a")
    solver = Solver(produce_proof=True)
    solver.add(a, Not(a))
    assert solver.check() == Result.UNSAT
    assert solver.validate_unsat_proof()


def test_facade_proof_requires_flag():
    from repro.smt import Bool, Not, Result, Solver
    solver = Solver()
    solver.add(Bool("a"), Not(Bool("a")))
    assert solver.check() == Result.UNSAT
    with pytest.raises(RuntimeError):
        solver.validate_unsat_proof()


def test_analyzer_certify_resilient_verdicts():
    from repro.cases import case_analyzer
    from repro.core import ResiliencySpec
    analyzer = case_analyzer("fig3")
    for spec in (ResiliencySpec.observability(k1=1, k2=1),
                 ResiliencySpec.secured_observability(k1=1, k2=0)):
        result = analyzer.verify(spec, certify=True)
        assert result.is_resilient
        assert result.details["proof_checked"] is True
