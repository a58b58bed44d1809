"""Cross-module integration tests.

These exercise complete user journeys: config files through the
analyzer, verdict consistency with the state estimator, and the
agreement between verification, enumeration, and maximal-resiliency
search on the same system.
"""

import numpy as np
import pytest

from repro.analysis import threat_space
from repro.core import (
    ObservabilityProblem,
    Property,
    ResiliencySpec,
    ScadaAnalyzer,
    Status,
)
from repro.engine import VerificationEngine
from repro.grid import DcStateEstimator, UnobservableError, ieee14
from repro.scada import (
    CaseConfig,
    GeneratorConfig,
    dump_config,
    generate_scada,
    parse_config,
)


@pytest.fixture(scope="module")
def system():
    synthetic = generate_scada(
        ieee14(),
        GeneratorConfig(measurement_fraction=0.8, dual_home_fraction=0.3,
                        seed=2))
    problem = ObservabilityProblem.from_table(synthetic.table)
    return synthetic, ScadaAnalyzer(synthetic.network, problem)


def _k_star(analyzer):
    engine = VerificationEngine.wrap(analyzer)
    return engine.max_resiliency(Property.OBSERVABILITY).value


def test_config_roundtrip_preserves_verdicts(system):
    synthetic, analyzer = system
    problem = analyzer.problem
    text = dump_config(CaseConfig(synthetic.network, problem, None),
                       rows=synthetic.table.rows)
    reparsed = parse_config(text)
    analyzer2 = ScadaAnalyzer(reparsed.network, reparsed.problem)
    for k in (0, 1, 2):
        spec = ResiliencySpec.observability(k=k)
        assert analyzer.verify(spec).status == \
            analyzer2.verify(spec).status, k


def test_threat_vector_breaks_the_estimator(system):
    synthetic, analyzer = system
    k = _k_star(analyzer)
    result = analyzer.verify(ResiliencySpec.observability(k=k + 1))
    assert result.status is Status.THREAT_FOUND
    estimator = DcStateEstimator(synthetic.table)
    angles = np.zeros(14)
    delivered = analyzer.reference.delivered_measurements(
        result.threat.failed_devices)
    readings = estimator.measure(angles, indices=sorted(delivered))
    # The paper's criterion is necessary for rank observability, so the
    # estimator must fail (or the criterion caught a count violation
    # that rank estimation survives — never the other way around for
    # coverage violations).
    if result.threat.uncovered_states:
        with pytest.raises(UnobservableError):
            estimator.estimate(readings)


def test_within_certificate_estimation_always_works(system):
    synthetic, analyzer = system
    k = _k_star(analyzer)
    estimator = DcStateEstimator(synthetic.table)
    rng = np.random.default_rng(0)
    angles = rng.normal(0, 0.1, 14)
    angles[0] = 0.0
    field = analyzer.network.field_device_ids
    for _ in range(20):
        failed = set(rng.choice(field, size=k, replace=False)) if k else set()
        delivered = analyzer.reference.delivered_measurements(failed)
        # The certificate says the paper's criterion holds; when it
        # holds AND the rank condition holds, estimation must succeed.
        readings = estimator.measure(angles, indices=sorted(delivered))
        try:
            result = estimator.estimate(readings)
            np.testing.assert_allclose(result.angles, angles, atol=1e-6)
        except UnobservableError:
            # Permitted only if the counting criterion is optimistic;
            # the analyzer's own predicate must still hold.
            assert analyzer.reference.observable(failed)


def test_enumeration_count_consistent_with_verify(system):
    _, analyzer = system
    k = _k_star(analyzer)
    resilient_spec = ResiliencySpec.observability(k=k)
    broken_spec = ResiliencySpec.observability(k=k + 1)
    assert threat_space(analyzer, resilient_spec).size == 0
    assert threat_space(analyzer, broken_spec, limit=50).size > 0


def test_certified_verdicts_match_uncertified(system):
    _, analyzer = system
    for k in (0, 1):
        spec = ResiliencySpec.secured_observability(k=k)
        plain = analyzer.verify(spec)
        certified = analyzer.verify(spec, certify=True)
        assert plain.status == certified.status
        if certified.is_resilient:
            assert certified.details["proof_checked"] is True


def test_bad_data_spec_agrees_with_estimator_redundancy(system):
    """If (k=0, r=1)-BDD holds, every state has ≥2 secured measurements;
    the estimator's LNR detector then catches a single gross error among
    secured readings."""
    synthetic, analyzer = system
    spec = ResiliencySpec.bad_data_detectability(r=1, k=0)
    result = analyzer.verify(spec)
    secured = analyzer.reference.delivered_measurements([], secured=True)
    if result.is_resilient and secured:
        estimator = DcStateEstimator(synthetic.table, sigma=0.01)
        rng = np.random.default_rng(5)
        angles = rng.normal(0, 0.1, 14)
        angles[0] = 0.0
        readings = estimator.measure(angles, indices=sorted(secured))
        victim = sorted(readings)[0]
        readings[victim] += 1.0
        flagged = estimator.estimate(readings)
        assert not flagged.chi_square_passes
