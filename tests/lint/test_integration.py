"""Analyzer/solver integration of the lint subsystem."""

import pytest

from repro.core import (
    ConfigurationLintError,
    ObservabilityProblem,
    ResiliencySpec,
    ScadaAnalyzer,
    Status,
)
from repro.scada import Device, DeviceType, Link, ScadaNetwork


def _bad_network():
    devices = [Device(1, DeviceType.IED), Device(2, DeviceType.RTU),
               Device(3, DeviceType.MTU)]
    links = [Link(1, 1, 2), Link(2, 2, 3)]
    return ScadaNetwork(devices=devices, links=links,
                        measurement_map={1: [1], 99: [2]}, strict=False)


def _problem():
    return ObservabilityProblem(num_states=2,
                                state_sets={1: [1], 2: [2]},
                                unique_groups=[])


def test_analyzer_refuses_error_configs():
    with pytest.raises(ConfigurationLintError) as excinfo:
        ScadaAnalyzer(_bad_network(), _problem())
    assert "SCADA001" in str(excinfo.value)
    assert excinfo.value.report.has_errors


def test_analyzer_lint_false_overrides():
    analyzer = ScadaAnalyzer(_bad_network(), _problem(), lint=False)
    result = analyzer.verify(ResiliencySpec.observability(k=1))
    assert result.status in (Status.RESILIENT, Status.THREAT_FOUND)
