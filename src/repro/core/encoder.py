"""Encoding the paper's constraints as SMT terms.

The paper states its model as one-directional implications (e.g. "alive
path ⇒ AssuredDelivery").  For *threat verification* the derived
predicates must be **defined**, not merely bounded — otherwise the
solver could falsify ``AssuredDelivery`` gratuitously and report
spurious threat vectors.  The encoder therefore asserts bi-implications:

* ``D_Z ↔ ∃ an alive assured path from Z's IED to the MTU``
* ``S_Z ↔ ∃ an alive secured path``
* ``¬Observability ↔ (∃X uncovered) ∨ (#unique delivered < n)``

and the failure budget as a cardinality bound over the ``Node``
variables of field devices.  All static configuration (protocol
pairing, crypto pairing, authentication, integrity) is folded into the
path sets before encoding, exactly as the paper's constraints allow.
"""

from __future__ import annotations

from typing import Dict, List

from ..scada.network import ScadaNetwork
from ..smt.terms import (
    And,
    AtMost,
    Bool,
    BoolVar,
    Iff,
    Not,
    Or,
    Term,
)
from .problem import ObservabilityProblem
from .specs import FailureBudget, Property

__all__ = ["ModelEncoder"]


class ModelEncoder:
    """Builds the constraint terms for one SCADA verification problem."""

    def __init__(self, network: ScadaNetwork,
                 problem: ObservabilityProblem,
                 model_links: bool = False) -> None:
        self.network = network
        self.problem = problem
        self.model_links = model_links
        self._node_vars: Dict[int, BoolVar] = {}
        self._link_vars: Dict[tuple, BoolVar] = {}
        self._delivered_vars: Dict[int, BoolVar] = {}
        self._secured_vars: Dict[int, BoolVar] = {}

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    def node(self, device_id: int) -> BoolVar:
        """``Node_i``: device *i* is available."""
        var = self._node_vars.get(device_id)
        if var is None:
            var = Bool(f"Node_{device_id}")
            self._node_vars[device_id] = var
        return var

    def link_up(self, a: int, b: int) -> BoolVar:
        """``LinkStatus_l``: the link between *a* and *b* is up."""
        pair = (a, b) if a < b else (b, a)
        var = self._link_vars.get(pair)
        if var is None:
            var = Bool(f"Link_{pair[0]}_{pair[1]}")
            self._link_vars[pair] = var
        return var

    def delivered(self, z: int) -> BoolVar:
        """``D_Z``: measurement *Z* is successfully delivered."""
        var = self._delivered_vars.get(z)
        if var is None:
            var = Bool(f"D_{z}")
            self._delivered_vars[z] = var
        return var

    def secured(self, z: int) -> BoolVar:
        """``S_Z``: measurement *Z* is delivered with authentication and
        integrity protection."""
        var = self._secured_vars.get(z)
        if var is None:
            var = Bool(f"S_{z}")
            self._secured_vars[z] = var
        return var

    # ------------------------------------------------------------------
    # Delivery definitions
    # ------------------------------------------------------------------

    def _path_alive(self, path) -> Term:
        """Conjunction of ``Node_i`` (and, with link modeling, the
        ``LinkStatus`` of every traversed link) over a path."""
        terms = [self.node(device) for device in path]
        if self.model_links:
            for a, b in zip(path, path[1:]):
                terms.append(self.link_up(a, b))
        return And(*terms)

    def _delivery_term(self, ied: int, secured: bool) -> Term:
        paths = (self.network.secured_paths(ied) if secured
                 else self.network.assured_paths(ied))
        return Or(*[self._path_alive(path) for path in paths])

    def delivery_definitions(self, secured: bool) -> List[Term]:
        """``D_Z`` (or ``S_Z``) definitions for every measurement.

        Measurements in the observability problem that no IED transmits
        are pinned undelivered.
        """
        terms: List[Term] = []
        var_of = self.secured if secured else self.delivered
        ied_delivery: Dict[int, Term] = {
            ied: self._delivery_term(ied, secured)
            for ied in self.network.ied_ids
        }
        assigned = set()
        for ied in self.network.ied_ids:
            for z in self.network.measurements_of(ied):
                if z not in self.problem.state_sets:
                    continue
                terms.append(Iff(var_of(z), ied_delivery[ied]))
                assigned.add(z)
        for z in self.problem.measurement_indices:
            if z not in assigned:
                terms.append(Not(var_of(z)))
        return terms

    def availability_axioms(self) -> List[Term]:
        """Non-field devices (MTU, routers) never fail in this model."""
        terms: List[Term] = []
        for device in self.network.devices.values():
            if not device.is_field_device:
                terms.append(self.node(device.device_id))
        return terms

    # ------------------------------------------------------------------
    # Property negations (the threat conditions)
    # ------------------------------------------------------------------

    def not_observability(self, secured: bool = False) -> Term:
        """``¬Observability`` / ``¬SecuredObservability``.

        True iff some state is covered by no delivered measurement, or
        fewer than ``n`` *unique* measurements are delivered.
        """
        var_of = self.secured if secured else self.delivered
        uncovered: List[Term] = []
        for state in self.problem.states():
            covering = self.problem.measurements_covering(state)
            uncovered.append(Not(Or(*[var_of(z) for z in covering])))
        group_delivered = [
            Or(*[var_of(z) for z in group])
            for group in self.problem.unique_groups
        ]
        too_few = AtMost(group_delivered, self.problem.num_states - 1)
        return Or(*uncovered, too_few)

    def not_command_deliverability(self) -> Term:
        """``¬CommandDeliverability``: some field device is alive yet
        unreachable from the MTU over assured hops — the control center
        could not command it."""
        conditions: List[Term] = []
        for device in self.network.field_device_ids:
            paths = self.network.assured_paths(device)
            reach = Or(*[self._path_alive(path) for path in paths])
            conditions.append(And(self.node(device), Not(reach)))
        return Or(*conditions)

    def not_bad_data_detectability(self, r: int) -> Term:
        """``¬BadDataDetectability``: some state has ≤ r secured
        measurements, so *r* corrupted readings can hide."""
        conditions: List[Term] = []
        for state in self.problem.states():
            covering = self.problem.measurements_covering(state)
            conditions.append(
                AtMost([self.secured(z) for z in covering], r))
        return Or(*conditions)

    def property_negation(self, prop: Property, r: int = 1) -> Term:
        """The threat condition ``¬property`` for any supported property.

        The single dispatch point used by both verification paths
        (fresh, assumption) and the attack-cost search;
        ``r`` only matters for bad-data detectability.
        """
        if prop is Property.OBSERVABILITY:
            return self.not_observability(secured=False)
        if prop is Property.SECURED_OBSERVABILITY:
            return self.not_observability(secured=True)
        if prop is Property.COMMAND_DELIVERABILITY:
            return self.not_command_deliverability()
        return self.not_bad_data_detectability(r)

    # ------------------------------------------------------------------
    # Failure budget
    # ------------------------------------------------------------------

    def budget_constraint(self, budget: FailureBudget) -> Term:
        """At most ``k`` (or ``k1``/``k2``) field devices unavailable."""
        if budget.is_split:
            assert budget.k1 is not None and budget.k2 is not None
            ied_down = [Not(self.node(i)) for i in self.network.ied_ids]
            rtu_down = [Not(self.node(i)) for i in self.network.rtu_ids]
            return And(AtMost(ied_down, budget.k1),
                       AtMost(rtu_down, budget.k2))
        assert budget.k is not None
        down = [Not(self.node(i)) for i in self.network.field_device_ids]
        return AtMost(down, budget.k)

    # ------------------------------------------------------------------

    def node_vars(self) -> Dict[int, BoolVar]:
        """Node variables allocated so far (device id → var)."""
        return dict(self._node_vars)

    def field_node_vars(self) -> Dict[int, BoolVar]:
        return {i: self.node(i) for i in self.network.field_device_ids}

    def link_vars(self) -> Dict[tuple, BoolVar]:
        """Link variables for every topology link (allocating any
        missing ones, so the budget covers links off all paths too)."""
        for link in self.network.topology.links:
            self.link_up(link.a, link.b)
        return dict(self._link_vars)

    def link_budget_constraint(self, link_k: int) -> Term:
        """At most *link_k* links down."""
        down = [Not(var) for var in self.link_vars().values()]
        return AtMost(down, link_k)
