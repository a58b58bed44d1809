"""Incremental context: verdict parity with the fresh-encoding analyzer."""

import pytest

from repro.core import (
    IncrementalContext,
    ObservabilityProblem,
    Property,
    ResiliencySpec,
    ScadaAnalyzer,
    Status,
)
from repro.engine import VerificationEngine
from repro.grid import ieee14
from repro.scada import GeneratorConfig, generate_scada


@pytest.fixture(scope="module")
def system():
    synthetic = generate_scada(
        ieee14(),
        GeneratorConfig(measurement_fraction=0.7, dual_home_fraction=0.3,
                        seed=6))
    problem = ObservabilityProblem.from_table(synthetic.table)
    return synthetic.network, problem


def test_verdict_parity_total_budgets(system):
    network, problem = system
    fresh = ScadaAnalyzer(network, problem)
    context = IncrementalContext(network, problem)
    for k in range(0, 5):
        spec = ResiliencySpec.observability(k=k)
        a = fresh.verify(spec, minimize=False).status
        b = context.verify(spec, minimize=False).status
        assert a == b, k


def test_verdict_parity_split_budgets(system):
    network, problem = system
    fresh = ScadaAnalyzer(network, problem)
    context = IncrementalContext(network, problem)
    for k1, k2 in [(0, 0), (1, 0), (0, 1), (2, 1), (3, 2)]:
        spec = ResiliencySpec.observability(k1=k1, k2=k2)
        a = fresh.verify(spec, minimize=False).status
        b = context.verify(spec, minimize=False).status
        assert a == b, (k1, k2)


def test_secured_property(system):
    network, problem = system
    context = IncrementalContext(
        network, problem, prop=Property.SECURED_OBSERVABILITY)
    fresh = ScadaAnalyzer(network, problem)
    for k in (0, 1, 2):
        spec = ResiliencySpec.secured_observability(k=k)
        a = fresh.verify(spec, minimize=False).status
        b = context.verify(spec, minimize=False).status
        assert a == b, k


def test_threat_vectors_validate(system):
    network, problem = system
    context = IncrementalContext(network, problem)
    result = context.verify(ResiliencySpec.observability(k=4))
    if result.status is Status.THREAT_FOUND:
        assert context.reference.is_threat(
            result.spec, result.threat.failed_devices)
        assert result.threat.minimal


def test_queries_are_independent(system):
    """A wide budget query must not leak into a later narrow one."""
    network, problem = system
    context = IncrementalContext(network, problem)
    wide_spec = ResiliencySpec.observability(k=6)
    narrow_spec = ResiliencySpec.observability(k=0)
    wide = context.verify(wide_spec, minimize=False)
    narrow = context.verify(narrow_spec, minimize=False)
    fresh = ScadaAnalyzer(network, problem)
    expected = fresh.verify(narrow_spec, minimize=False).status
    assert narrow.status == expected
    # And re-asking the wide one still matches.
    again = context.verify(wide_spec, minimize=False)
    assert again.status == wide.status


def test_max_resiliency_matches_binary_search(system):
    network, problem = system
    fresh = VerificationEngine.wrap(ScadaAnalyzer(network, problem))
    warm = VerificationEngine(network, problem, backend="assumption",
                              lint=False)
    prop = Property.OBSERVABILITY
    assert warm.max_resiliency(prop, screen=False).value == \
        fresh.max_resiliency(prop).value


def test_case_study_parity():
    from repro.cases import case_problem, fig3_network
    network, problem = fig3_network(), case_problem()
    context = IncrementalContext(network, problem)
    assert context.verify(
        ResiliencySpec.observability(k1=1, k2=1)).is_resilient
    result = context.verify(ResiliencySpec.observability(k1=2, k2=1))
    assert result.status is Status.THREAT_FOUND
