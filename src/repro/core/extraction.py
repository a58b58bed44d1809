"""Shared sat-model → :class:`ThreatVector` translation.

Both paths that obtain a satisfying assignment for the threat model —
the fresh analyzer and the cached assumption context — decode it
identically: read the failed devices
(and links) off the model, validate them against the independent
reference evaluator, optionally shrink to an inclusion-minimal set, and
attach the delivery evidence explaining *why* the property fails.
Their threat enumerations block each found vector with the same
clause (:func:`blocking_clause`).
"""

from __future__ import annotations

from typing import Set, Tuple

from ..scada.network import ScadaNetwork
from ..smt.solver import Model
from ..smt.terms import Not, Or, Term
from .encoder import ModelEncoder
from .problem import ObservabilityProblem
from .reference import ReferenceEvaluator
from .results import ThreatVector
from .specs import ResiliencySpec

__all__ = ["blocking_clause", "extract_threat"]


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


def blocking_clause(threat: ThreatVector, encoder: ModelEncoder,
                    spec: ResiliencySpec, minimal: bool) -> Term:
    """The clause an enumeration adds to exclude *threat*.

    With *minimal* it forbids the failure set and every superset;
    otherwise only this exact assignment of the node (and, with a link
    budget, link) variables.
    """
    failed = threat.failed_devices
    failed_links = threat.failed_links
    node_vars = encoder.field_node_vars()
    if minimal:
        revive = [node_vars[i] for i in failed]
        revive += [encoder.link_up(a, b) for a, b in failed_links]
        return Or(*revive)
    flip = [Not(var) if i not in failed else var
            for i, var in node_vars.items()]
    if spec.link_k is not None:
        flip += [Not(var) if pair not in failed_links else var
                 for pair, var in encoder.link_vars().items()]
    return Or(*flip)
