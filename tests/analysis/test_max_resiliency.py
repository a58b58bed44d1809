"""Maximal-resiliency search."""

import pytest

from repro.cases import case_analyzer
from repro.core import Property, ResiliencySpec, ScadaAnalyzer
from repro.engine import VerificationEngine


def _warm(analyzer):
    """An ``assumption``-path engine sharing *analyzer*'s reference."""
    return VerificationEngine(analyzer.network, analyzer.problem,
                              backend="assumption", lint=False,
                              reference=analyzer.reference)


def _max(engine, prop=Property.OBSERVABILITY, axis="total"):
    return engine.max_resiliency(prop, axis=axis).value


@pytest.fixture(scope="module")
def fig3():
    return _warm(case_analyzer("fig3"))


@pytest.fixture(scope="module")
def fig4():
    return _warm(case_analyzer("fig4"))


def test_case_study_ied_resiliency(fig3):
    # Paper: tolerates exactly 3 IED-only failures.
    assert _max(fig3, axis="ied") == 3


def test_case_study_fig4_rtu_resiliency(fig4):
    # Paper: Fig. 4 is not resilient to any RTU failure.
    assert _max(fig4, axis="rtu") == 0
    assert _max(fig4, axis="ied") == 3


def test_secured_maxima(fig3):
    assert _max(fig3, Property.SECURED_OBSERVABILITY, axis="ied") >= 1
    assert _max(fig3, Property.SECURED_OBSERVABILITY, axis="rtu") >= 1


def test_total_resiliency_consistent_with_verify(fig3):
    k = _max(fig3)
    assert fig3.verify(ResiliencySpec.observability(k=k)).is_resilient
    assert not fig3.verify(
        ResiliencySpec.observability(k=k + 1)).is_resilient


def test_negative_one_when_property_never_holds(tiny_network,
                                                tiny_problem):
    engine = _warm(ScadaAnalyzer(tiny_network, tiny_problem))
    # Secured observability fails even with zero failures.
    assert _max(engine, Property.SECURED_OBSERVABILITY) == -1


def test_monotonicity_on_synthetic(ieee14_analyzer):
    k = _max(_warm(ieee14_analyzer))
    assert k >= 0
    for smaller in range(k + 1):
        spec = ResiliencySpec.observability(k=smaller)
        assert ieee14_analyzer.verify(spec).is_resilient


def test_more_measurements_no_less_resilient():
    """Fig. 7(a) trend: larger measurement sets ⇒ resiliency no lower."""
    from repro.core import ObservabilityProblem
    from repro.grid import ieee14, sampled_measurement_plan
    from repro.scada import GeneratorConfig, generate_scada

    maxima = []
    for fraction in (0.5, 1.0):
        plan = sampled_measurement_plan(ieee14(), fraction, seed=11)
        syn = generate_scada(ieee14(), GeneratorConfig(seed=11), plan=plan)
        engine = VerificationEngine(
            syn.network, ObservabilityProblem.from_table(syn.table),
            backend="assumption")
        maxima.append(_max(engine, axis="ied"))
    assert maxima[1] >= maxima[0]


def test_command_deliverability_maxima(fig3):
    # RTU 9 strands IEDs 1-3, so no RTU failure is tolerated...
    assert _max(fig3, Property.COMMAND_DELIVERABILITY, axis="rtu") == 0
    # ...but IED failures never strand anyone else.
    n_ieds = len(fig3.network.ied_ids)
    assert _max(fig3, Property.COMMAND_DELIVERABILITY,
                axis="ied") == n_ieds


def test_split_axis_fixes_the_other_budget(fig3):
    # With one RTU allowed to fail, the IED allowance can only shrink.
    free = _max(fig3, axis="ied")
    assert fig3.max_resiliency(Property.OBSERVABILITY, axis="ied",
                               other=1).value <= free


def test_bad_axis_arguments_rejected(fig3):
    with pytest.raises(ValueError, match="unknown axis"):
        fig3.max_resiliency(Property.OBSERVABILITY, axis="links")
    with pytest.raises(ValueError, match="no other axis"):
        fig3.max_resiliency(Property.OBSERVABILITY, other=1)
