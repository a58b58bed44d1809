"""Incremental verification: one encoding, many budget queries.

Maximal-resiliency search (Fig. 7(a)) and threat-space sweeps ask many
queries that differ *only* in the failure budget.  The plain
:class:`~repro.core.analyzer.ScadaAnalyzer` re-encodes the whole model
per query; an :class:`IncrementalContext` encodes the budget-independent
part — delivery definitions, availability axioms, and the property
negation — once, and answers each budget against the shared solver.

Every budget bound is a selector literal over a persistent, extendable
totalizer (:class:`~repro.smt.BudgetHandle`), passed to ``check`` as an
assumption.  Nothing is re-encoded per query — a new budget only
*grows* the counter the first time it is seen — and **all** learned
clauses survive across budgets.  For bad-data detectability the
redundancy parameter ``r`` is gated the same way, so one context serves
every ``(k, r)`` combination.  A
:class:`~repro.engine.VerificationEngine` on the ``assumption`` path
keeps contexts in its encoding cache.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from ..obs.tracer import current_tracer, probe_for
from ..obs.tracer import span as obs_span
from ..sat.enumeration import drive_enumeration
from ..sat.limits import Limits
from ..scada.network import ScadaNetwork
from ..smt.solver import BudgetHandle, Result, Solver
from ..smt.terms import Bool, BoolVal, Implies, Not, Term
from .encoder import ModelEncoder
from .extraction import blocking_clause, extract_threat
from .problem import ObservabilityProblem
from .reference import ReferenceEvaluator
from .results import Status, ThreatVector, VerificationResult
from .specs import Property, ResiliencySpec

__all__ = ["IncrementalContext"]


class IncrementalContext:
    """A cached base encoding for one (property, link-modeling) key.

    All budget-parameterized queries against that key — single verdicts,
    galloping max-resiliency probes, threat enumeration — run against
    the shared solver, so learned clauses carry over.  Budgets (and,
    for bad-data detectability, ``r``) are chosen by assumption literals
    over persistent extendable counters, so nothing is re-encoded.
    """

    backend_name = "assumption"

    def __init__(self, network: ScadaNetwork,
                 problem: ObservabilityProblem,
                 prop: Property = Property.OBSERVABILITY,
                 model_links: bool = False,
                 reference: Optional[ReferenceEvaluator] = None) -> None:
        self.network = network
        self.problem = problem
        self.prop = prop
        self.model_links = model_links
        self.reference = reference or ReferenceEvaluator(network, problem)
        self._encoder = ModelEncoder(network, problem,
                                     model_links=model_links)
        self._solver = Solver()
        # The bad-data redundancy parameter r is gated per query exactly
        # like k, so the base encoding is r-independent.
        self._gate_r = prop is Property.BAD_DATA_DETECTABILITY
        self._negation_selectors: Dict[int, Term] = {}
        started = time.perf_counter()
        self._solver.add(*self._encoder.availability_axioms())
        self._solver.add(*self._encoder.delivery_definitions(secured=False))
        if prop.uses_security:
            self._solver.add(
                *self._encoder.delivery_definitions(secured=True))
        if not self._gate_r:
            self._solver.add(self._encoder.property_negation(prop))
        if model_links:
            # Allocate every topology link's variable up front so
            # per-query link budgets never grow the base numbering.
            self._encoder.link_vars()
        self.base_encode_time = time.perf_counter() - started
        self._base_vars = self._solver.num_vars
        self._base_clauses = self._solver.num_clauses

    # ------------------------------------------------------------------

    def interrupt(self) -> None:
        """Cooperatively abort the running (or next) query.

        Thread-safe in the cooperative sense: the shared solver's CDCL
        loop polls the flag and answers UNKNOWN with limit reason
        ``interrupt``, unwinding cleanly — the base encoding stays
        reusable.  Sticky until :meth:`clear_interrupt`.
        """
        self._solver.interrupt()

    def clear_interrupt(self) -> None:
        """Re-arm the context after an :meth:`interrupt`."""
        self._solver.clear_interrupt()

    def _check_spec(self, spec: ResiliencySpec) -> None:
        if spec.property is not self.prop:
            raise ValueError(
                f"context encodes {self.prop.value}, got a "
                f"{spec.property.value} spec")
        if (spec.link_k is not None) != self.model_links:
            raise ValueError(
                "context link modeling does not match the spec: "
                f"model_links={self.model_links}, link_k={spec.link_k}")

    def _device_handle(self, kind: str) -> BudgetHandle:
        enc = self._encoder
        ids = {
            "nodes": self.network.field_device_ids,
            "ieds": self.network.ied_ids,
            "rtus": self.network.rtu_ids,
        }[kind]
        return self._solver.budget_handle(
            [Not(enc.node(i)) for i in ids], f"{kind}-down")

    def _negation_selector(self, r: int) -> Term:
        """Selector assuming which activates ``¬property`` at this r.

        The implication is asserted permanently; distinct r values share
        the underlying per-state counters (the encoder keys them on the
        literal set and raises their bound in place), so sweeping r is
        as cheap as sweeping k.
        """
        sel = self._negation_selectors.get(r)
        if sel is None:
            sel = Bool(f"__negation[r={r}]")
            self._solver.add(Implies(
                sel, self._encoder.property_negation(self.prop, r)))
            self._negation_selectors[r] = sel
        return sel

    def _budget_assumptions(self, spec: ResiliencySpec) -> List[Term]:
        """Selector terms activating this spec's budgets (and r)."""
        budget = spec.budget
        assumptions: List[Term] = []
        if budget.is_split:
            assert budget.k1 is not None and budget.k2 is not None
            assumptions.append(self._device_handle("ieds").at_most(budget.k1))
            assumptions.append(self._device_handle("rtus").at_most(budget.k2))
        else:
            assert budget.k is not None
            assumptions.append(self._device_handle("nodes").at_most(budget.k))
        if spec.link_k is not None:
            links = self._solver.budget_handle(
                [Not(var) for var in self._encoder.link_vars().values()],
                "links-down")
            assumptions.append(links.at_most(spec.link_k))
        if self._gate_r:
            assumptions.append(self._negation_selector(spec.r))
        # A trivially-true bound (k >= n) needs no assumption at all.
        return [a for a in assumptions
                if not (isinstance(a, BoolVal) and a.value)]

    # ------------------------------------------------------------------

    def verify(self, spec: ResiliencySpec, minimize: bool = True,
               limits: Optional[Limits] = None) -> VerificationResult:
        """Verify the context's property under one spec's budgets.

        *limits* bounds the solve (per query, not cumulatively — the
        shared solver grants every query the full budget); an expired
        budget yields an UNKNOWN result naming the reason.
        """
        self._check_spec(spec)
        solver = self._solver
        solver.set_hooks(probe_for(current_tracer()))
        started = time.perf_counter()
        with obs_span("encode", backend=self.backend_name):
            pre_vars, pre_clauses = solver.num_vars, solver.num_clauses
            assumptions = self._budget_assumptions(spec)
        encode_time = time.perf_counter() - started
        with obs_span("solve", backend=self.backend_name) as sp:
            outcome = solver.check(*assumptions, limits=limits)
            sp.attrs["result"] = outcome.value
        return self._result(spec, outcome, encode_time,
                            pre_vars, pre_clauses, minimize)

    def _result(self, spec: ResiliencySpec, outcome: Result,
                encode_time: float, pre_vars: int, pre_clauses: int,
                minimize: bool) -> VerificationResult:
        solver = self._solver
        # Report the encoding size *this query* would have cost on its
        # own: the shared base plus the query's budget delta.  The
        # shared solver's raw totals accumulate every previous query's
        # budget encoding and would inflate scaling tables relative to
        # the fresh path.  (A repeated budget's delta is zero: its
        # counter already exists.)
        result = VerificationResult(
            spec=spec,
            status=Status.UNKNOWN,
            encode_time=encode_time,
            solve_time=solver.last_check_stats.get("check_time", 0.0),
            num_vars=self._base_vars + (solver.num_vars - pre_vars),
            num_clauses=(self._base_clauses
                         + (solver.num_clauses - pre_clauses)),
            backend=self.backend_name,
            stats=dict(solver.last_check_stats),
        )
        if outcome is Result.UNKNOWN:
            if solver.last_limit_reason is not None:
                result.limit_reason = solver.last_limit_reason.value
            return result
        if outcome is Result.UNSAT:
            result.status = Status.RESILIENT
            return result
        result.status = Status.THREAT_FOUND
        started = time.perf_counter()
        with obs_span("extract", backend=self.backend_name):
            result.threat = extract_threat(
                solver.model(), self._encoder, self.reference,
                self.network, self.problem, spec, minimize,
                origin=f"{self.backend_name} solver")
        result.extract_time = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------

    def enumerate(self, spec: ResiliencySpec,
                  limit: Optional[int] = None,
                  minimal: bool = True,
                  limits: Optional[Limits] = None) -> List[ThreatVector]:
        """All (minimal) threat vectors within the spec's budgets.

        Blocking clauses are asserted inside a query scope, so the
        cached base encoding is untouched once the scope pops and later
        queries see no leftover blocks.  The budget itself rides on
        assumption selectors (created *before* the scope opens, so
        their definitions are permanent); only the blocking clauses are
        scoped.
        """
        self._check_spec(spec)
        solver = self._solver
        solver.set_hooks(probe_for(current_tracer()))
        assumptions = self._budget_assumptions(spec)

        def check() -> Optional[bool]:
            outcome = solver.check(*assumptions, limits=limits)
            if outcome is Result.UNKNOWN:
                return None
            return outcome is Result.SAT

        def extract() -> ThreatVector:
            return extract_threat(
                solver.model(), self._encoder, self.reference,
                self.network, self.problem, spec, minimize=minimal,
                origin=f"{self.backend_name} solver")

        def block(threat: ThreatVector) -> bool:
            solver.add(blocking_clause(threat, self._encoder, spec,
                                       minimal))
            # The empty vector violates the property; nothing else can
            # be more minimal, so stop the enumeration here.
            return bool(threat.failed_devices or threat.failed_links)

        with solver.scope():
            # On budget expiry drive_enumeration raises
            # ResourceLimitReached carrying the vectors found so far;
            # the scope's context manager pops the blocking clauses on
            # the way out either way, so the cached base encoding stays
            # clean for the next query.
            return list(drive_enumeration(
                check, extract, block, limit=limit, what="threat vector",
                limit_reason=lambda: solver.last_limit_reason))
