"""Cross-validation of the structural pass against the SAT engine.

The graph analyzer and the SAT engine answer the same questions — how
many failures silence this component, uncover this state, break this
property — through entirely independent machinery: min vertex cut over
the enumerated delivery paths versus cardinality-bounded satisfiability
of the full formal model.  Agreement between them is a far stronger
correctness story than either alone; :func:`cross_check` runs both on
one configuration and flags every provable disagreement.

Checked claims, per the soundness contract of
:mod:`repro.graphs.security_index`:

* every **witness** (upper bound) must be realizable: a SAT check with
  the silencing condition asserted and the failure budget set to the
  witness size must be satisfiable — *always*, certificate or not;
* every **certified lower bound** must be unbeatable: the same check
  one below the bound must be unsatisfiable — asserted only when the
  delivery graph's exactness certificate holds;
* the per-property **attack-cardinality bracket** must contain the
  SAT-derived minimal attack cardinality (from the engine's
  max-resiliency search, screening disabled so the two sides stay
  independent).

All group/state checks share one incremental solver: the delivery
definitions are encoded once, each silencing condition gets a single
indicator variable defined by a bi-implication, and each check assumes
that indicator plus a budget selector from one extendable cardinality
counter.  An UNKNOWN outcome (expired resource budget) skips the check
without counting as agreement or disagreement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.encoder import ModelEncoder
from ..core.problem import ObservabilityProblem
from ..core.search import SearchBounds
from ..core.specs import Property
from ..engine import VerificationEngine
from ..obs.tracer import current_tracer, probe_for
from ..obs.tracer import span as obs_span
from ..sat.limits import Limits
from ..scada.network import ScadaNetwork
from ..smt.solver import Result, Solver
from ..smt.terms import And, Bool, BoolVal, Iff, Not, Term
from .security_index import IndexBounds, StructuralAnalysis

__all__ = ["CrossCheckReport", "Disagreement", "cross_check"]


@dataclass(frozen=True)
class Disagreement:
    """One provable conflict between the graph oracle and SAT."""

    kind: str        # "group-index" | "state-criticality" | "resiliency"
    mode: str        # "assured" | "secured" | a property value
    subject: str     # "group {1,5}", "state 7", "minimal attack ..."
    graph_value: str
    sat_value: str

    def describe(self) -> str:
        return (f"{self.kind} {self.subject} [{self.mode}]: "
                f"graph says {self.graph_value}; "
                f"SAT says {self.sat_value}")


@dataclass
class CrossCheckReport:
    """Everything one audit run established."""

    subject: str
    certified: Dict[str, bool]
    checks: int = 0
    unknown: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)
    #: mode → smallest measurement of each unique group → its index.
    group_indices: Dict[str, Dict[int, int]] = field(default_factory=dict)
    #: mode → state → criticality (min failures uncovering it).
    state_criticality: Dict[str, Dict[int, int]] = field(
        default_factory=dict)
    #: one entry per audited property: both sides' brackets.
    resiliency: List[Dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def summary(self) -> str:
        verdict = ("agreement" if self.ok
                   else f"{len(self.disagreements)} disagreement(s)")
        skipped = f", {self.unknown} unknown" if self.unknown else ""
        return (f"audit {self.subject}: {verdict} across "
                f"{self.checks} check(s){skipped}")

    def to_text(self) -> str:
        lines = [self.summary()]
        cert = " ".join(f"{mode}={'yes' if ok else 'no'}"
                        for mode, ok in sorted(self.certified.items()))
        lines.append(f"  exactness certificate: {cert}")
        for mode in sorted(self.group_indices):
            indexed = self.group_indices[mode]
            shown = " ".join(f"z{z}={v}" for z, v in sorted(indexed.items()))
            lines.append(f"  security indices ({mode}): {shown}")
        for mode in sorted(self.state_criticality):
            crits = self.state_criticality[mode]
            if crits:
                low = min(crits.values())
                worst = sorted(x for x, v in crits.items() if v == low)
                lines.append(
                    f"  state criticality ({mode}): min {low} at "
                    f"state(s) {worst}")
        for entry in self.resiliency:
            upper = entry["graph_upper"]
            shown_upper = "∞" if upper is None else upper
            lines.append(
                f"  {entry['property']}: graph cardinality in "
                f"[{entry['graph_lower']}, {shown_upper}], SAT max "
                f"resiliency in [{entry['sat_lower']}, "
                f"{entry['sat_upper']}]")
        if self.disagreements:
            lines.append("  disagreements:")
            lines.extend(f"    - {d.describe()}"
                         for d in self.disagreements)
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "subject": self.subject,
            "ok": self.ok,
            "certified": self.certified,
            "checks": self.checks,
            "unknown": self.unknown,
            "group_indices": self.group_indices,
            "state_criticality": self.state_criticality,
            "resiliency": self.resiliency,
            "disagreements": [
                {"kind": d.kind, "mode": d.mode, "subject": d.subject,
                 "graph": d.graph_value, "sat": d.sat_value}
                for d in self.disagreements
            ],
        }, indent=2, sort_keys=True)


def _group_label(group: Sequence[int]) -> str:
    return "group {" + ",".join(map(str, group)) + "}"


def cross_check(network: ScadaNetwork,
                problem: ObservabilityProblem,
                properties: Optional[Sequence[Property]] = None,
                r: int = 1,
                limits: Optional[Limits] = None) -> CrossCheckReport:
    """Run the graph oracle and the SAT engine against each other.

    Audits every unique-group security index and every state
    criticality in both delivery modes, then the attack-cardinality
    bracket of each property in *properties* (all four by default).
    *limits* bounds each individual solver call; expired checks are
    counted in ``report.unknown`` and skipped.
    """
    structural = StructuralAnalysis(network, problem)
    props = list(properties) if properties is not None else list(Property)
    report = CrossCheckReport(
        subject=network.name,
        certified={"assured": structural.certified(False),
                   "secured": structural.certified(True)})

    encoder = ModelEncoder(network, problem)
    solver = Solver()
    solver.set_hooks(probe_for(current_tracer()))
    solver.add(*encoder.availability_axioms())
    solver.add(*encoder.delivery_definitions(secured=False))
    solver.add(*encoder.delivery_definitions(secured=True))
    down = [Not(var) for _, var in sorted(encoder.field_node_vars().items())]
    handle = solver.budget_handle(down, "audit-budget")

    def sat_within(budget: int, indicator: Term) -> Optional[bool]:
        """Is the indicated condition reachable within *budget* failures?"""
        if budget < 0:
            return False
        report.checks += 1
        selector = handle.at_most(budget)
        assumptions: List[Term] = [indicator]
        if not (isinstance(selector, BoolVal) and selector.value):
            assumptions.append(selector)
        outcome = solver.check(*assumptions, limits=limits)
        if outcome is Result.UNKNOWN:
            report.unknown += 1
            return None
        return outcome is Result.SAT

    def audit_cut(kind: str, mode: str, subject: str, size: int,
                  indicator: Term) -> None:
        """Witness check at *size* plus (certified) floor check below."""
        if sat_within(size, indicator) is False:
            report.disagreements.append(Disagreement(
                kind, mode, subject,
                f"a witness of size {size} exists",
                f"unreachable within {size} failure(s)"))
        if size > 0 and report.certified[mode]:
            if sat_within(size - 1, indicator) is True:
                report.disagreements.append(Disagreement(
                    kind, mode, subject,
                    f"certified minimum cost {size}",
                    f"reachable with {size - 1} failure(s)"))

    with obs_span("graphs.crosscheck", subject=network.name):
        for secured, mode in ((False, "assured"), (True, "secured")):
            var_of = encoder.secured if secured else encoder.delivered
            indices: Dict[int, int] = {}
            for position, group in enumerate(problem.unique_groups):
                gamma = structural.group_cut(group, secured=secured).size
                indices[min(group)] = gamma
                g_var = Bool(f"XG_{mode}_{position}")
                solver.add(Iff(
                    g_var, And(*[Not(var_of(z)) for z in group])))
                audit_cut("group-index", mode, _group_label(group),
                          gamma, g_var)
            report.group_indices[mode] = indices

            crits: Dict[int, int] = {}
            for state in problem.states():
                beta = structural.state_cut(state, secured=secured).size
                crits[state] = beta
                covering = problem.measurements_covering(state)
                u_var = Bool(f"XU_{mode}_{state}")
                solver.add(Iff(
                    u_var, And(*[Not(var_of(z)) for z in covering])))
                audit_cut("state-criticality", mode, f"state {state}",
                          beta, u_var)
            report.state_criticality[mode] = crits

        engine = VerificationEngine(network, problem,
                                    backend="assumption", lint=False)
        n_field = len(network.field_device_ids)
        for prop in props:
            bounds = structural.attack_bounds(prop, r=r)
            sat_bounds = engine.max_resiliency(prop, r=r, limits=limits,
                                               screen=False)
            report.checks += 1
            if sat_bounds.unknown_budgets:
                report.unknown += 1
            report.resiliency.append({
                "property": prop.value,
                "graph_lower": bounds.lower,
                "graph_upper": bounds.upper,
                "graph_certified": bounds.certified,
                "sat_lower": sat_bounds.lower,
                "sat_upper": sat_bounds.upper,
                "sat_exact": sat_bounds.exact,
            })
            _compare_resiliency(report, prop, bounds, sat_bounds, n_field)
    return report


def _compare_resiliency(report: CrossCheckReport, prop: Property,
                        graph: IndexBounds, sat: SearchBounds,
                        n_field: int) -> None:
    """Flag bracket conflicts around the minimal attack cardinality.

    The SAT search brackets the max resiliency ``s``; the minimal
    attack cardinality is ``s + 1`` (or nonexistent when the property
    survives the full device budget).  Even a budget-limited search is
    usable: its ``lower`` is proven to hold and everything above its
    ``upper`` is proven to fail.
    """
    subject = "minimal attack cardinality"
    if sat.exact and sat.lower >= n_field:
        if graph.upper is not None:
            report.disagreements.append(Disagreement(
                "resiliency", prop.value, subject,
                f"a violating set of size {graph.upper} exists",
                "no failure set of any size violates the property"))
        return
    # mac >= sat.lower + 1 always; mac <= sat.upper + 1 once some
    # budget is proven to fail (sat.upper < n_field).
    if graph.upper is not None and sat.lower + 1 > graph.upper:
        report.disagreements.append(Disagreement(
            "resiliency", prop.value, subject,
            f"a violating set of size {graph.upper} exists",
            f"every set of size <= {sat.lower} keeps the property"))
    if sat.upper < n_field and graph.certified \
            and sat.upper + 1 < graph.lower:
        report.disagreements.append(Disagreement(
            "resiliency", prop.value, subject,
            f"certified minimum {graph.lower}",
            f"a violating set of size <= {sat.upper + 1} exists"))
