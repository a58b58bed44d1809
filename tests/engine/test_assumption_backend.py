"""The assumption path: shared-solver semantics beyond verdicts.

``tests/engine/test_backends.py`` already property-checks that the
``assumption`` path is verdict- and threat-space-equivalent to the
``fresh`` oracle.  These tests cover what is
specific to assumption-selected budgets: bad-data detectability sweeps
over the redundancy parameter ``r`` through one cached context, query
isolation on the shared solver, and the engine plumbing around it.
"""

import pytest

from repro.cases import case_problem, fig3_network
from repro.core import Property, ResiliencySpec, Status
from repro.engine import VerificationEngine


@pytest.fixture
def fig3_case():
    return fig3_network(), case_problem()


def test_bad_data_r_sweep_matches_fresh(fig3_case):
    """Every (k, r) verdict agrees with fresh — through ONE context."""
    network, problem = fig3_case
    fresh = VerificationEngine(network, problem, backend="fresh",
                               lint=False)
    assumption = VerificationEngine(network, problem,
                                    backend="assumption", lint=False)
    for r in (1, 2, 3):
        for k in range(0, 4):
            spec = ResiliencySpec.for_property(
                Property.BAD_DATA_DETECTABILITY, r=r, k=k)
            expected = fresh.verify(spec, minimize=False).status
            got = assumption.verify(spec, minimize=False).status
            assert got == expected, (r, k)
    # All r values were served by a single cached encoding.
    assert len(assumption.cache) == 1


def test_interleaved_budgets_stay_isolated(fig3_case):
    """Revisiting a budget after others gives the same verdict — no
    constraint from one query leaks into the next."""
    network, problem = fig3_case
    engine = VerificationEngine(network, problem, backend="assumption",
                                lint=False)
    first = {}
    for k in (0, 2, 1, 3):
        spec = ResiliencySpec.observability(k=k)
        first[k] = engine.verify(spec, minimize=False).status
    for k in (3, 0, 1, 2):
        spec = ResiliencySpec.observability(k=k)
        assert engine.verify(spec, minimize=False).status == first[k], k
    # Monotonicity as a sanity check on the sweep itself.
    assert first[0] is Status.RESILIENT
    assert first[3] is Status.THREAT_FOUND


def test_enumeration_blocks_do_not_leak(fig3_case):
    """Blocking clauses from an enumeration stay scoped: the same spec
    enumerates the same space twice on the shared solver."""
    network, problem = fig3_case
    engine = VerificationEngine(network, problem, backend="assumption",
                                lint=False)
    spec = ResiliencySpec.observability(k=2)
    once = {frozenset(v.failed_devices)
            for v in engine.enumerate_threat_vectors(spec)}
    again = {frozenset(v.failed_devices)
             for v in engine.enumerate_threat_vectors(spec)}
    assert once == again
    assert once  # fig3 has threats at k=2


def test_repeated_budget_adds_no_encoding(fig3_case):
    """The second query at a budget re-encodes nothing (delta = 0)."""
    network, problem = fig3_case
    engine = VerificationEngine(network, problem, backend="assumption",
                                lint=False)
    spec = ResiliencySpec.observability(k=1)
    first = engine.verify(spec, minimize=False)
    second = engine.verify(spec, minimize=False)
    assert second.num_vars <= first.num_vars
    assert second.num_clauses <= first.num_clauses
    assert second.backend == "assumption"


def test_certify_falls_back_to_fresh(fig3_case):
    network, problem = fig3_case
    engine = VerificationEngine(network, problem, backend="assumption",
                                lint=False)
    spec = ResiliencySpec.observability(k=0)
    result = engine.verify(spec, certify=True)
    assert result.is_resilient
    assert result.backend == "fresh"
