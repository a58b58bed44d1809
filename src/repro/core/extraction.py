"""Shared sat-model → :class:`ThreatVector` translation.

Both paths that obtain a satisfying assignment for the threat model —
the fresh analyzer and the cached assumption context — decode it
identically: read the failed devices
(and links) off the model, validate them against the independent
reference evaluator, optionally shrink to an inclusion-minimal set, and
attach the delivery evidence explaining *why* the property fails.
"""

from __future__ import annotations

from typing import Set, Tuple

from ..scada.network import ScadaNetwork
from ..smt.solver import Model
from .encoder import ModelEncoder
from .problem import ObservabilityProblem
from .reference import ReferenceEvaluator
from .results import ThreatVector
from .specs import ResiliencySpec

__all__ = ["extract_threat"]


def extract_threat(model: Model, encoder: ModelEncoder,
                   reference: ReferenceEvaluator,
                   network: ScadaNetwork,
                   problem: ObservabilityProblem,
                   spec: ResiliencySpec,
                   minimize: bool,
                   origin: str = "solver") -> ThreatVector:
    """Decode, validate, and (optionally) minimize a threat vector."""
    failed: Set[int] = {
        device for device, var in encoder.field_node_vars().items()
        if not model.value(var)
    }
    failed_links: Set[Tuple[int, int]] = set()
    if spec.link_k is not None:
        failed_links = {pair for pair, var in encoder.link_vars().items()
                        if not model.value(var)}
    if not reference.is_threat(spec, failed, failed_links):
        raise AssertionError(
            f"{origin} produced an invalid threat vector {sorted(failed)} "
            f"/ links {sorted(failed_links)} for {spec.describe()}; "
            f"encoder and reference disagree")
    minimal = False
    if minimize:
        devices, links = reference.minimize_threat_with_links(
            spec, failed, failed_links)
        failed, failed_links = set(devices), set(links)
        minimal = True
    secured = spec.property.uses_security
    delivered = reference.delivered_measurements(
        failed, secured=secured, failed_links=failed_links)
    undelivered = set(problem.state_sets) - delivered
    covered: Set[int] = set()
    for z in delivered:
        covered.update(problem.state_sets[z])
    uncovered = set(problem.states()) - covered
    return ThreatVector(
        failed_ieds=frozenset(failed & set(network.ied_ids)),
        failed_rtus=frozenset(failed & set(network.rtu_ids)),
        failed_links=frozenset(failed_links),
        undelivered_measurements=frozenset(undelivered),
        uncovered_states=frozenset(uncovered),
        minimal=minimal,
    )
