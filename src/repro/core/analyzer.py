"""SCADA Analyzer — the paper's verification framework (Fig. 2).

``ScadaAnalyzer`` takes a SCADA configuration and an observability
problem, encodes the chosen resiliency specification, and solves it:

* **sat** → a threat vector: a set of at-most-budget device failures
  under which the property fails.  The raw model is validated against
  the reference evaluator and (optionally) shrunk to an
  inclusion-minimal failure set.
* **unsat** → the system is certified resilient at that specification.

Threat-space enumeration and maximal-resiliency search are layered on
top of ``verify`` (see :mod:`repro.analysis`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Set, Tuple

from ..obs.tracer import current_tracer, probe_for
from ..obs.tracer import span as obs_span
from ..sat.enumeration import drive_enumeration
from ..sat.cnf import CNF
from ..sat.limits import Limits
from ..scada.network import ScadaNetwork
from ..smt.solver import Result, Solver
from ..smt.terms import Term
from ..smt.tseitin import Encoder
from .encoder import ModelEncoder
from .extraction import blocking_clause, extract_threat
from .problem import ObservabilityProblem
from .reference import ReferenceEvaluator
from .results import Status, ThreatVector, VerificationResult
from .specs import ResiliencySpec

__all__ = ["ConfigurationLintError", "ScadaAnalyzer"]


class ConfigurationLintError(ValueError):
    """The configuration has error-level lint diagnostics.

    Verdicts over such a configuration would be meaningless (dangling
    references) or foregone (statically unobservable states), so the
    analyzer refuses to certify it.  The offending
    :class:`~repro.lint.diagnostics.LintReport` is on :attr:`report`.
    """

    def __init__(self, report) -> None:
        errors = report.errors
        summary = "; ".join(f"{d.code}: {d.message}" for d in errors[:3])
        if len(errors) > 3:
            summary += f"; and {len(errors) - 3} more"
        super().__init__(
            f"configuration {report.subject!r} fails lint with "
            f"{len(errors)} error(s): {summary} "
            f"(pass lint=False to analyze anyway)")
        self.report = report


class ScadaAnalyzer:
    """Resiliency verification for one SCADA configuration."""

    def __init__(self, network: ScadaNetwork,
                 problem: ObservabilityProblem,
                 lint: bool = True,
                 reference: Optional[ReferenceEvaluator] = None) -> None:
        self.network = network
        self.problem = problem
        if lint:
            # Imported lazily: repro.lint imports core modules at module
            # level, so a top-level import here would be circular.
            from ..lint import lint_case

            report = lint_case(network, problem)
            if report.has_errors:
                raise ConfigurationLintError(report)
        # The engine shares its reference evaluator with the analyzer
        # and its warm contexts; standalone use builds a private one.
        self.reference = reference or ReferenceEvaluator(network, problem)
        # Cooperative-cancel plumbing: each query builds a throwaway
        # solver, so an interrupt arriving from another thread must (a)
        # reach the solver currently searching and (b) stay armed for a
        # query that has not built its solver yet.
        self._live_solver: Optional[Solver] = None
        self._interrupt_requested = False

    # ------------------------------------------------------------------

    def interrupt(self) -> None:
        """Cooperatively abort the running (or next) query.

        The currently-solving query answers UNKNOWN with limit reason
        ``interrupt``; the flag is sticky until :meth:`clear_interrupt`,
        so a query racing past the solver hand-off is still caught.
        """
        self._interrupt_requested = True
        solver = self._live_solver
        if solver is not None:
            solver.interrupt()

    def clear_interrupt(self) -> None:
        """Re-arm the analyzer after an :meth:`interrupt`."""
        self._interrupt_requested = False
        solver = self._live_solver
        if solver is not None:
            solver.clear_interrupt()

    backend_name = "fresh"

    @staticmethod
    def _threat_model(encoder: ModelEncoder,
                      spec: ResiliencySpec) -> List[Term]:
        """The assertions whose models are the spec's threat vectors."""
        terms = list(encoder.availability_axioms())
        terms += encoder.delivery_definitions(secured=False)
        if spec.property.uses_security:
            terms += encoder.delivery_definitions(secured=True)
        terms.append(encoder.budget_constraint(spec.budget))
        if spec.link_k is not None:
            terms.append(encoder.link_budget_constraint(spec.link_k))
        terms.append(encoder.property_negation(spec.property, spec.r))
        return terms

    def _model_encoder(self, spec: ResiliencySpec) -> ModelEncoder:
        return ModelEncoder(self.network, self.problem,
                            model_links=spec.link_k is not None)

    def _build(self, spec: ResiliencySpec,
               produce_proof: bool = False) -> tuple:
        """Encode the threat-verification model into a fresh solver."""
        encoder = self._model_encoder(spec)
        solver = Solver(produce_proof=produce_proof)
        self._live_solver = solver
        if self._interrupt_requested:
            solver.interrupt()
        solver.set_hooks(probe_for(current_tracer()))
        started = time.perf_counter()
        with obs_span("encode", backend=self.backend_name):
            solver.add(*self._threat_model(encoder, spec))
        encode_time = time.perf_counter() - started
        return solver, encoder, encode_time

    def _extract_threat(self, solver: Solver, encoder: ModelEncoder,
                        spec: ResiliencySpec,
                        minimize: bool) -> ThreatVector:
        return extract_threat(solver.model(), encoder, self.reference,
                              self.network, self.problem, spec, minimize)

    # ------------------------------------------------------------------

    def verify(self, spec: ResiliencySpec, minimize: bool = True,
               certify: bool = False,
               limits: Optional[Limits] = None) -> VerificationResult:
        """Verify one resiliency specification.

        ``minimize=True`` shrinks a found threat vector to an
        inclusion-minimal failure set before reporting it.
        ``certify=True`` re-validates an unsat (resilient) answer with
        the independent RUP proof checker; the result's
        ``details["proof_checked"]`` records the outcome.  ``limits``
        bounds the solve (see :class:`repro.sat.Limits`); an expired
        budget yields an UNKNOWN result naming the reason, never a
        spurious verdict.
        """
        solver, encoder, encode_time = self._build(
            spec, produce_proof=certify)
        with obs_span("solve", backend=self.backend_name) as sp:
            outcome = solver.check(limits=limits)
            sp.attrs["result"] = outcome.value
        result = VerificationResult(
            spec=spec,
            status=Status.UNKNOWN,
            encode_time=encode_time,
            solve_time=solver.statistics.check_time,
            num_vars=solver.num_vars,
            num_clauses=solver.num_clauses,
            backend=self.backend_name,
            stats=dict(solver.last_check_stats),
        )
        if outcome is Result.UNKNOWN:
            if solver.last_limit_reason is not None:
                result.limit_reason = solver.last_limit_reason.value
            return result
        if outcome is Result.UNSAT:
            result.status = Status.RESILIENT
            if certify:
                result.details["proof_checked"] = \
                    solver.validate_unsat_proof()
            return result
        result.status = Status.THREAT_FOUND
        started = time.perf_counter()
        with obs_span("extract", backend=self.backend_name):
            result.threat = self._extract_threat(solver, encoder, spec,
                                                 minimize)
        result.extract_time = time.perf_counter() - started
        return result

    # ------------------------------------------------------------------

    def enumerate_threat_vectors(
        self,
        spec: ResiliencySpec,
        limit: Optional[int] = None,
        minimal: bool = True,
        limits: Optional[Limits] = None,
    ) -> List[ThreatVector]:
        """All (minimal) threat vectors within the budget.

        With ``minimal=True`` (the default, and how the paper counts its
        threat space) each sat model is shrunk to an inclusion-minimal
        failure set, which is then blocked along with all its supersets;
        the loop thus enumerates exactly the minimal threat vectors.
        With ``minimal=False`` every distinct failure *assignment* is
        counted (blocking only the exact assignment).

        Every individual solve is bounded by *limits*; if one expires
        the enumeration is incomplete and
        :exc:`~repro.sat.ResourceLimitReached` is raised with the
        vectors found so far on its ``partial`` attribute.
        """
        solver, encoder, _ = self._build(spec)

        def check() -> Optional[bool]:
            outcome = solver.check(limits=limits)
            if outcome is Result.UNKNOWN:
                return None
            return outcome is Result.SAT

        def extract() -> ThreatVector:
            return self._extract_threat(solver, encoder, spec,
                                        minimize=minimal)

        def block(threat: ThreatVector) -> bool:
            solver.add(blocking_clause(threat, encoder, spec, minimal))
            # The empty vector violates the property; nothing else can
            # be more minimal, so stop the enumeration here.
            return bool(threat.failed_devices or threat.failed_links)

        return list(drive_enumeration(
            check, extract, block, limit=limit, what="threat vector",
            limit_reason=lambda: solver.last_limit_reason))

    # ------------------------------------------------------------------

    def model_size(self, spec: ResiliencySpec) -> Dict[str, int]:
        """Encoded model size (vars/clauses) without solving."""
        solver, _, _ = self._build(spec)
        return {"vars": solver.num_vars, "clauses": solver.num_clauses}

    def export_cnf(self, spec: ResiliencySpec) -> Tuple[CNF, Set[int]]:
        """The Tseitin-emitted CNF of the threat model, plus its frozen
        variables (the named model variables an analysis must keep).

        Used by ``repro lint --encoding``; nothing is solved.
        """
        cnf = CNF()
        tseitin = Encoder(cnf)
        for term in self._threat_model(self._model_encoder(spec), spec):
            tseitin.assert_term(term)
        return cnf, set(tseitin.var_names.values())

    def export_smtlib(self, spec: ResiliencySpec) -> str:
        """The full threat-verification model as an SMT-LIB 2 script.

        ``sat`` from an external solver (e.g. Z3, the paper's engine)
        means a threat vector exists — the same convention as
        :meth:`verify`.
        """
        from ..smt.smtlib import to_smtlib

        solver, _, _ = self._build(spec)
        return to_smtlib(
            solver.assertions(),
            comment=(f"SCADA resiliency threat model: {spec.describe()}\n"
                     f"network: {self.network.name}\n"
                     f"sat => a threat vector exists "
                     f"(false Node_i are the failed devices)"))
