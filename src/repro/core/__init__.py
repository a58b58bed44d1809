"""The paper's contribution: SCADA resiliency verification.

Public entry point: :class:`ScadaAnalyzer`, configured with a
:class:`~repro.scada.network.ScadaNetwork` and an
:class:`ObservabilityProblem`, verifying :class:`ResiliencySpec`
instances.
"""

from .analyzer import ConfigurationLintError, ScadaAnalyzer
from .encoder import ModelEncoder
from .incremental import IncrementalContext
from .problem import ObservabilityProblem, group_rows_by_component
from .reference import ReferenceEvaluator
from .results import Status, ThreatVector, VerificationResult
from .search import SearchBounds, galloping_max_bounded
from .specs import FailureBudget, Property, ResiliencySpec

__all__ = [
    "ConfigurationLintError",
    "FailureBudget",
    "IncrementalContext",
    "ModelEncoder",
    "ObservabilityProblem",
    "Property",
    "ReferenceEvaluator",
    "ResiliencySpec",
    "ScadaAnalyzer",
    "SearchBounds",
    "Status",
    "ThreatVector",
    "VerificationResult",
    "galloping_max_bounded",
    "group_rows_by_component",
]
