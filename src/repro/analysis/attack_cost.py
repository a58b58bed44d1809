"""Cheapest-attack analysis: minimum-cost threat vectors.

The paper's contingency model treats all device failures alike; real
adversaries do not — taking down a hardened control-center RTU costs
more than DoS-ing a field IED.  This module assigns every field device
an integer *attack cost* and finds the **minimum total cost** at which a
threat vector exists, plus the vector realizing it.

Encoding: a budget ``Σ cost_i · down_i ≤ C`` is a cardinality constraint
over a multiset in which each device's down-literal appears ``cost_i``
times; binary search over ``C`` (with the property negation fixed)
yields the optimum with O(log ΣC) solver calls — a small-weights
MaxSAT-style linear-search specialization that fits the substrate.

The weighted budget rides on a :class:`~repro.smt.BudgetHandle`: one
persistent counter over the multiset whose per-``C`` selector literals
are passed to ``check`` as assumptions, so the whole binary search
shares a single solver and every learned clause — no push/pop, no
re-encoding per probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Union

from ..core.analyzer import ScadaAnalyzer
from ..core.encoder import ModelEncoder
from ..core.results import ThreatVector
from ..core.specs import Property, ResiliencySpec
from ..engine import VerificationEngine
from ..obs.tracer import current_tracer, probe_for
from ..obs.tracer import span as obs_span
from ..sat.limits import Limits, ResourceLimitReached
from ..smt.solver import Result, Solver
from ..smt.terms import BoolVal, Not, Term

__all__ = ["AttackCostResult", "cheapest_threat", "uniform_costs"]

Verifier = Union[ScadaAnalyzer, VerificationEngine]


@dataclass
class AttackCostResult:
    """The cheapest threat vector and its cost."""

    prop: Property
    cost: Optional[int]            # None when no threat exists at all
    threat: Optional[ThreatVector]
    costs: Dict[int, int]
    solver_calls: int = 0

    @property
    def attack_exists(self) -> bool:
        return self.cost is not None

    def summary(self) -> str:
        if not self.attack_exists:
            return (f"{self.prop.value}: no failure set of any cost "
                    f"violates the property")
        assert self.threat is not None
        return (f"{self.prop.value}: cheapest attack costs {self.cost} "
                f"— [{self.threat.describe()}]")


def uniform_costs(analyzer: Verifier, ied_cost: int = 1,
                  rtu_cost: int = 3) -> Dict[int, int]:
    """A cost map with distinct IED and RTU prices."""
    costs = {ied: ied_cost for ied in analyzer.network.ied_ids}
    costs.update({rtu: rtu_cost for rtu in analyzer.network.rtu_ids})
    return costs


def cheapest_threat(analyzer: Verifier,
                    prop: Property = Property.OBSERVABILITY,
                    costs: Optional[Mapping[int, int]] = None,
                    r: int = 1,
                    limits: Optional[Limits] = None
                    ) -> AttackCostResult:
    """Find the minimum-cost failure set violating *prop*.

    ``costs`` maps every field device to a positive integer; omitted
    devices default to cost 1.  Raises on non-positive costs.
    Accepts a :class:`ScadaAnalyzer` or a :class:`VerificationEngine`
    (whose shared reference evaluator validates the optimum).

    *limits* bounds every probe; an expired budget raises
    :exc:`~repro.sat.ResourceLimitReached` (the optimum cannot be
    soundly reported from a half-finished binary search).
    """
    engine = VerificationEngine.wrap(analyzer)
    network = engine.network
    cost_map = {device: 1 for device in network.field_device_ids}
    if costs:
        cost_map.update(costs)
    for device, cost in cost_map.items():
        if cost < 1:
            raise ValueError(f"device {device} has non-positive cost")
        if device not in network.devices:
            raise ValueError(f"unknown device {device} in cost map")

    encoder = ModelEncoder(network, engine.problem)
    solver = Solver()
    solver.set_hooks(probe_for(current_tracer()))
    solver.add(*encoder.availability_axioms())
    solver.add(*encoder.delivery_definitions(secured=False))
    if prop.uses_security:
        solver.add(*encoder.delivery_definitions(secured=True))
    solver.add(encoder.property_negation(prop, r))

    weighted: List[Term] = []
    for device, cost in sorted(cost_map.items()):
        weighted.extend([Not(encoder.node(device))] * cost)
    total = len(weighted)
    # One extendable counter over the cost multiset serves every probe;
    # each budget C is just its selector literal assumed for one check.
    handle = solver.budget_handle(weighted, "attack-cost")

    calls = 0

    def threat_within(budget: int) -> Optional[set]:
        nonlocal calls
        calls += 1
        selector = handle.at_most(budget)
        assumptions: List[Term] = [] if (isinstance(selector, BoolVal)
                                         and selector.value) else [selector]
        outcome = solver.check(*assumptions, limits=limits)
        if outcome is Result.UNKNOWN:
            raise ResourceLimitReached(
                f"solver budget exhausted in cheapest-threat search "
                f"(after {calls} probe(s))",
                reason=solver.last_limit_reason)
        if outcome is Result.UNSAT:
            return None
        model = solver.model()
        return {
            device
            for device, var in encoder.field_node_vars().items()
            if not model.value(var)
        }

    with obs_span("analysis.attack_cost", prop=prop.value) as sp:
        # Is there any threat at all?
        best = threat_within(total)
        if best is None:
            sp.attrs["probes"] = calls
            return AttackCostResult(prop=prop, cost=None, threat=None,
                                    costs=cost_map, solver_calls=calls)

        spec = ResiliencySpec.for_property(prop, r=r, k=total)
        lo, hi = 0, sum(cost_map[d] for d in best)
        while lo < hi:
            mid = (lo + hi) // 2
            found = threat_within(mid)
            if found is None:
                lo = mid + 1
            else:
                hi = min(mid, sum(cost_map[d] for d in found))
                best = found

        minimal = engine.reference.minimize_threat(spec, best)
        threat = ThreatVector(
            failed_ieds=frozenset(minimal & set(network.ied_ids)),
            failed_rtus=frozenset(minimal & set(network.rtu_ids)),
            minimal=True,
        )
        final_cost = sum(cost_map[d] for d in minimal)
        sp.attrs["probes"] = calls
        sp.attrs["cost"] = final_cost
        return AttackCostResult(prop=prop, cost=final_cost, threat=threat,
                                costs=cost_map, solver_calls=calls)
