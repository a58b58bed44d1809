"""Monte-Carlo availability estimation."""

import math

import pytest

from repro.analysis import estimate_availability
from repro.analysis.monte_carlo import AvailabilityEstimate
from repro.cases import case_analyzer
from repro.core import Property
from repro.engine import VerificationEngine


@pytest.fixture(scope="module")
def fig3():
    return case_analyzer("fig3")


def _k_star(analyzer):
    engine = VerificationEngine.wrap(analyzer)
    return engine.max_resiliency(Property.OBSERVABILITY).value


def test_zero_failure_probability_is_fully_available(fig3):
    estimate = estimate_availability(fig3, failure_probability=0.0,
                                     samples=200)
    assert estimate.availability == 1.0
    assert estimate.violations == 0


def test_certain_failure_kills_availability(fig3):
    estimate = estimate_availability(fig3, failure_probability=1.0,
                                     samples=50)
    assert estimate.availability == 0.0


def test_availability_decreases_with_failure_rate(fig3):
    low = estimate_availability(fig3, failure_probability=0.02,
                                samples=2000, seed=1)
    high = estimate_availability(fig3, failure_probability=0.3,
                                 samples=2000, seed=1)
    assert low.availability >= high.availability


def test_certificate_cross_check(fig3):
    k_star = _k_star(fig3)
    estimate = estimate_availability(fig3, failure_probability=0.1,
                                     samples=3000, seed=2,
                                     certificate=k_star,
                                     cross_check=True)
    # Certified-safe scenarios were encountered and none violated
    # (a violation would have raised inside the estimator).
    assert estimate.skipped_by_certificate > 0
    assert 0.0 <= estimate.availability <= 1.0


def test_wrong_certificate_is_caught(fig3):
    k_star = _k_star(fig3)
    with pytest.raises(AssertionError):
        estimate_availability(fig3, failure_probability=0.4,
                              samples=3000, seed=3,
                              certificate=k_star + 3,
                              cross_check=True)


class _CountingReference:
    """Wraps a reference evaluator, counting ``observable`` calls."""

    def __init__(self, inner):
        self._inner = inner
        self.calls = 0

    def observable(self, failed, secured=False):
        self.calls += 1
        return self._inner.observable(failed, secured=secured)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _CountingAnalyzer:
    """Analyzer facade exposing the counting reference evaluator."""

    def __init__(self, analyzer):
        self.network = analyzer.network
        self.reference = _CountingReference(analyzer.reference)


def test_certificate_skip_performs_no_reference_evaluations(fig3):
    """The k*-certificate shortcut must actually skip evaluation: with
    cross_check off (the default), certified scenarios cost zero
    reference calls."""
    k_star = _k_star(fig3)
    counting = _CountingAnalyzer(fig3)
    n = len(fig3.network.field_device_ids)
    estimate = estimate_availability(counting, failure_probability=0.1,
                                     samples=1000, seed=2,
                                     certificate=max(k_star, n))
    # Every scenario fell under the (generous) certificate …
    assert estimate.skipped_by_certificate == estimate.samples
    # … and none of them touched the reference evaluator.
    assert counting.reference.calls == 0


def test_cross_check_true_evaluates_certified_scenarios(fig3):
    k_star = _k_star(fig3)
    counting = _CountingAnalyzer(fig3)
    estimate = estimate_availability(counting, failure_probability=0.1,
                                     samples=500, seed=2,
                                     certificate=k_star,
                                     cross_check=True)
    # With the cross-check armed every sample is evaluated, certified
    # or not.
    assert counting.reference.calls == estimate.samples


def test_per_device_overrides(fig3):
    # Making one RTU certain to fail caps availability hard.
    rtu = fig3.network.rtu_ids[0]
    estimate = estimate_availability(
        fig3, failure_probability=0.0, per_device={rtu: 1.0},
        samples=300, seed=4)
    expected_holds = fig3.reference.observable({rtu})
    assert (estimate.availability == 1.0) == expected_holds


def test_input_validation(fig3):
    with pytest.raises(ValueError):
        estimate_availability(fig3, failure_probability=1.5)
    with pytest.raises(ValueError):
        estimate_availability(fig3, per_device={9999: 0.5})
    with pytest.raises(ValueError):
        estimate_availability(fig3, per_device={1: 2.0})
    with pytest.raises(ValueError):
        estimate_availability(fig3, prop=Property.BAD_DATA_DETECTABILITY)


def test_deterministic_under_seed(fig3):
    a = estimate_availability(fig3, failure_probability=0.2,
                              samples=500, seed=7)
    b = estimate_availability(fig3, failure_probability=0.2,
                              samples=500, seed=7)
    assert a.violations == b.violations


def test_summary_string(fig3):
    estimate = estimate_availability(fig3, failure_probability=0.1,
                                     samples=100)
    assert "availability" in estimate.summary()


# ---------------------------------------------------------------------
# Wilson score interval (confidence_95)
# ---------------------------------------------------------------------

def _wilson_half_width(violations, n, z=1.96):
    """Closed-form Wilson half-width, written out independently."""
    p = violations / n
    denom = 1.0 + z * z / n
    return (z / denom) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))


def _estimate(violations, n):
    return AvailabilityEstimate(
        prop=Property.OBSERVABILITY, samples=n, violations=violations,
        skipped_by_certificate=0, certificate_k=None)


@pytest.mark.parametrize("n", [10, 100, 2000])
def test_wilson_interval_closed_forms(n):
    z = 1.96
    # p̂ = 0: Wald collapses to ±0; Wilson gives z²/(2(n+z²)).
    zero = _estimate(0, n).confidence_95
    assert zero == pytest.approx(z * z / (2 * (n + z * z)))
    assert zero > 0.0
    # p̂ = 1/n and p̂ = 1 against the independently-written closed form.
    assert _estimate(1, n).confidence_95 == pytest.approx(
        _wilson_half_width(1, n))
    assert _estimate(n, n).confidence_95 == pytest.approx(
        _wilson_half_width(n, n))
    # Symmetry: p̂ = 1 matches p̂ = 0 exactly.
    assert _estimate(n, n).confidence_95 == pytest.approx(zero)


def test_wilson_interval_never_degenerates():
    for n in (1, 5, 50, 500):
        for violations in (0, n // 2, n):
            half = _estimate(violations, n).confidence_95
            assert 0.0 < half < 1.0


def test_wilson_narrows_with_samples():
    assert (_estimate(0, 4000).confidence_95
            < _estimate(0, 400).confidence_95
            < _estimate(0, 40).confidence_95)
