"""The verification engine facade.

:class:`VerificationEngine` is the single entry point every consumer —
the CLI, the sweep drivers, max-resiliency search, threat-space
enumeration, hardening, the audit report, the service and the stream
watchers — programs against.  It owns

* the lint gate (run once per configuration, not per query),
* a shared :class:`~repro.core.reference.ReferenceEvaluator`,
* one :class:`~repro.core.analyzer.ScadaAnalyzer`, which re-encodes
  the whole model into a new solver per query, and
* an :class:`~repro.engine.cache.EncodingCache` of warm
  :class:`~repro.core.incremental.IncrementalContext`\\ s.

Each engine answers on one of two paths, fixed at construction:

* ``fresh`` — every query goes to the analyzer.  It is the independent
  oracle and the cheapest path for one-shot cells.
* ``assumption`` — the budget-independent part is encoded once per
  (property, link-modeling) key and cached; budgets (and the bad-data
  ``r``) are selected by assumption literals over persistent
  extendable counters, so all learned clauses survive across budgets.
  This is the warm path of the service, the watchers and the
  max-resiliency searches.

Both paths give the same verdicts by construction (differential-tested
in ``tests/engine``).  Certified queries and model exports always take
the analyzer: RUP proofs need an assumption-free solve.
"""

from __future__ import annotations

import weakref
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Tuple,
    TypeVar,
    Union,
)

from ..core.analyzer import ConfigurationLintError, ScadaAnalyzer
from ..core.incremental import IncrementalContext
from ..core.problem import ObservabilityProblem
from ..core.reference import ReferenceEvaluator
from ..core.results import Status, ThreatVector, VerificationResult
from ..core.search import SearchBounds, galloping_max_bounded
from ..core.specs import Property, ResiliencySpec
from ..obs.tracer import count as obs_count
from ..obs.tracer import event as obs_event
from ..obs.tracer import span as obs_span
from ..sat.limits import Limits, ResourceLimitReached
from ..scada.network import ScadaNetwork
from .cache import EncodingCache, EncodingKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..graphs.security_index import StructuralAnalysis

__all__ = ["VerificationEngine"]

_T = TypeVar("_T")


class VerificationEngine:
    """Resiliency verification on the ``fresh`` or ``assumption`` path."""

    def __init__(self, network: ScadaNetwork,
                 problem: ObservabilityProblem,
                 backend: str = "fresh",
                 lint: bool = True,
                 reference: Optional[ReferenceEvaluator] = None) -> None:
        if backend not in ("fresh", "assumption"):
            raise ValueError(f"unknown backend {backend!r}; expected "
                             f"fresh or assumption")
        self.network = network
        self.problem = problem
        self.backend_name = backend
        if lint:
            # Imported lazily: repro.lint imports core modules at module
            # level, so a top-level import here would be circular.
            from ..lint import lint_case

            report = lint_case(network, problem)
            if report.has_errors:
                raise ConfigurationLintError(report)
        self.reference = reference or ReferenceEvaluator(network, problem)
        # Lint ran above; the analyzer never re-lints.
        self.analyzer = ScadaAnalyzer(network, problem, lint=False,
                                      reference=self.reference)
        #: The warm path's contexts (always empty on the fresh path).
        self.cache = EncodingCache()
        # Every context handed out, weakly held: an interrupt must reach
        # whichever context is solving right now without pinning
        # contexts the cache has already dropped.
        self._live_contexts: "weakref.WeakSet[IncrementalContext]" = \
            weakref.WeakSet()
        self._interrupt_requested = False
        self._structural: Optional["StructuralAnalysis"] = None
        #: Lifetime solver-effort totals across every query this engine
        #: has answered (the service's per-session ``GET /sessions``
        #: accounting); tier keys are last-seen gauges, not sums.
        self.cumulative_stats: Dict[str, float] = {"queries": 0.0}

    # ------------------------------------------------------------------

    def interrupt(self) -> None:
        """Cooperatively abort the running (or next) query.

        Reaches the analyzer and every live warm context; the query in
        flight answers UNKNOWN with limit reason ``interrupt`` (never a
        spurious verdict) and warm contexts survive to serve the next
        query.  Sticky until :meth:`clear_interrupt` — the service's
        job layer arms it when a client cancels or disconnects, and
        re-arms the engine once the cancelled job has fully unwound.
        """
        self._interrupt_requested = True
        self.analyzer.interrupt()
        for ctx in list(self._live_contexts):
            ctx.interrupt()

    def clear_interrupt(self) -> None:
        """Re-arm the engine after an :meth:`interrupt`."""
        self._interrupt_requested = False
        self.analyzer.clear_interrupt()
        for ctx in list(self._live_contexts):
            ctx.clear_interrupt()

    @classmethod
    def wrap(cls, subject: Union["VerificationEngine", ScadaAnalyzer]
             ) -> "VerificationEngine":
        """Adapt an existing analyzer (or pass an engine through).

        Lets the :mod:`repro.analysis` drivers accept either object
        while every verification still funnels through one engine.  The
        analyzer's reference evaluator (and its lint decision) is
        reused, so wrapping is cheap.
        """
        if isinstance(subject, cls):
            return subject
        return cls(subject.network, subject.problem, lint=False,
                   reference=subject.reference)

    def _warm(self, spec: ResiliencySpec,
              query: Callable[[IncrementalContext], _T]) -> _T:
        """Run *query* on the cached context for *spec*'s key."""
        key = EncodingKey(spec.property, spec.link_k is not None)

        def build() -> IncrementalContext:
            ctx = IncrementalContext(
                self.network, self.problem, prop=key.prop,
                model_links=key.model_links, reference=self.reference)
            obs_event("engine.context_created", prop=key.prop.value,
                      base_encode_time=ctx.base_encode_time)
            return ctx

        ctx = self.cache.get_or_create(key, build)
        self._live_contexts.add(ctx)
        if self._interrupt_requested:
            ctx.interrupt()
        try:
            return query(ctx)
        except ResourceLimitReached:
            # A clean limit outcome leaves the shared solver consistent;
            # the cached base encoding is worth keeping.
            raise
        except Exception:
            # Anything else may have left the shared solver with
            # partially-asserted state: evict the poisoned context so
            # the next query re-encodes from scratch instead of
            # inheriting corrupt state.
            self.cache.invalidate(key)
            raise

    # ------------------------------------------------------------------

    def verify(self, spec: ResiliencySpec, minimize: bool = True,
               certify: bool = False,
               limits: Optional[Limits] = None) -> VerificationResult:
        """Verify one resiliency specification on the engine's path.

        Semantics match :meth:`ScadaAnalyzer.verify
        <repro.core.analyzer.ScadaAnalyzer.verify>`; the result
        additionally records the path that answered (``backend``) and
        per-query solver statistics.  ``certify=True`` always solves
        on the fresh path, whose unsat answers carry a checked RUP
        proof.  ``limits`` bounds the solve; an expired budget yields
        an UNKNOWN result, never a spurious verdict.
        """
        fresh = certify or self.backend_name == "fresh"
        with obs_span("query", spec=spec.describe(),
                      backend="fresh" if fresh else "assumption") as sp:
            if fresh:
                result = self.analyzer.verify(
                    spec, minimize=minimize, certify=certify,
                    limits=limits)
            else:
                result = self._warm(spec, lambda ctx: ctx.verify(
                    spec, minimize=minimize, limits=limits))
            sp.attrs["status"] = result.status.value
            sp.attrs["conflicts"] = int(result.stats.get("conflicts", 0))
            sp.attrs["restarts"] = int(result.stats.get("restarts", 0))
            sp.attrs["decisions"] = int(result.stats.get("decisions", 0))
            sp.attrs["propagations"] = int(
                result.stats.get("propagations", 0))
        self._accumulate(result.stats)
        return result

    def _accumulate(self, stats: Dict[str, float]) -> None:
        """Fold one query's solver stats into the lifetime totals.

        Tier sizes are instantaneous snapshots, so they overwrite;
        everything else (conflicts, propagations, check time) is a
        per-query delta and sums.
        """
        totals = self.cumulative_stats
        totals["queries"] = totals.get("queries", 0.0) + 1.0
        for key, value in stats.items():
            if key.startswith("tier_"):
                totals[key] = float(value)
            else:
                totals[key] = totals.get(key, 0.0) + float(value)

    def enumerate_threat_vectors(
        self,
        spec: ResiliencySpec,
        limit: Optional[int] = None,
        minimal: bool = True,
        limits: Optional[Limits] = None,
    ) -> List[ThreatVector]:
        """All (minimal) threat vectors within the budget.

        Each individual solve is bounded by *limits*; when one expires,
        :exc:`~repro.sat.ResourceLimitReached` is raised with the
        vectors found so far on its ``partial`` attribute.
        """
        if self.backend_name == "fresh":
            return self.analyzer.enumerate_threat_vectors(
                spec, limit=limit, minimal=minimal, limits=limits)
        return self._warm(spec, lambda ctx: ctx.enumerate(
            spec, limit=limit, minimal=minimal, limits=limits))

    # ------------------------------------------------------------------
    # Maximal-resiliency search (galloping + binary, shared helper)
    # ------------------------------------------------------------------

    def structural(self) -> "StructuralAnalysis":
        """The polynomial structural pass over this configuration.

        Built lazily (see :mod:`repro.graphs`); shared by the screened
        search below and available to callers wanting indices or
        attack brackets without any solving.
        """
        if self._structural is None:
            # Imported lazily: repro.graphs.crosscheck imports this
            # module, so a top-level import here would be circular.
            from ..graphs.security_index import StructuralAnalysis

            self._structural = StructuralAnalysis(self.network,
                                                  self.problem)
        return self._structural

    def _screen_seeds(self, prop: Property, r: int, fallback: int,
                      split: Optional[Tuple[str, int]] = None
                      ) -> Tuple[int, int]:
        """Bracket seeds for a max-resiliency search from the
        structural attack-cardinality bounds.

        For the total budget the translation is direct: max resiliency
        is the minimal attack cardinality minus one, so a witness of
        size ``u`` caps the search at ``u - 1`` and a certified floor
        ``l`` starts it at ``l - 1``.  For a split budget *split* names
        the searched axis (``"ied"`` or ``"rtu"``) and fixes the other
        axis's allowance: the witness caps the search only when its
        other-axis share fits that allowance, and the certified floor
        weakens to ``l - 1 - other`` (the other axis may spend its
        whole allowance toward the attack).
        """
        bounds = self.structural().attack_bounds(prop, r=r)
        if split is None:
            upper = bounds.resiliency_upper(fallback)
            lower = bounds.resiliency_lower() if bounds.certified else -1
        else:
            axis, other = split
            upper = fallback
            if bounds.upper is not None:
                witness = set(bounds.witness)
                ieds = len(witness & set(self.network.ied_ids))
                rtus = len(witness & set(self.network.rtu_ids))
                own, rest = ((ieds, rtus) if axis == "ied"
                             else (rtus, ieds))
                if rest <= other:
                    upper = min(fallback, own - 1)
            lower = (bounds.lower - 1 - other if bounds.certified
                     else -1)
        lower = max(-1, min(lower, upper))
        if lower > -1 or upper < fallback:
            obs_count("graphs.screen.searches_seeded")
            obs_event("graphs.screen", property=prop.value,
                      certified=bounds.certified, lower=lower,
                      upper=upper, fallback=fallback)
        return lower, upper

    def _probe(self, spec: ResiliencySpec,
               limits: Optional[Limits]) -> Optional[bool]:
        """Three-valued monotone oracle: None when the budget expired."""
        result = self.verify(spec, minimize=False, limits=limits)
        if result.status is Status.UNKNOWN:
            return None
        return result.is_resilient

    def max_resiliency(self, prop: Property, *, axis: str = "total",
                       other: int = 0, r: int = 1,
                       limits: Optional[Limits] = None,
                       screen: bool = True) -> SearchBounds:
        """Sound bracket on the largest budget under which *prop* holds.

        *axis* picks the searched budget: ``"total"`` (k over all field
        devices), ``"ied"`` (k1, with the RTU budget k2 fixed at
        *other*) or ``"rtu"`` (k2, with k1 fixed at *other*).  Every
        probe runs on this engine's path.  With no limits the bracket
        is exact (:attr:`SearchBounds.value` reads it); an UNKNOWN
        probe stops refinement and the true maximum lies in
        ``[lower, upper]``.  With *screen* (the default) the structural
        pass seeds the bracket, skipping probes it has already decided;
        pass ``screen=False`` for a solver-only answer (the cross-check
        does, to keep the two engines independent).
        """
        devices = {"total": self.network.field_device_ids,
                   "ied": self.network.ied_ids,
                   "rtu": self.network.rtu_ids}.get(axis)
        if devices is None:
            raise ValueError(f"unknown axis {axis!r}; expected total, "
                             f"ied or rtu")
        if axis == "total" and other:
            raise ValueError("the total budget has no other axis to fix")

        def spec(k: int) -> ResiliencySpec:
            if axis == "total":
                return ResiliencySpec.for_property(prop, r=r, k=k)
            k1, k2 = (k, other) if axis == "ied" else (other, k)
            return ResiliencySpec.for_property(prop, r=r, k1=k1, k2=k2)

        fallback = len(devices)
        lower, upper = (-1, fallback)
        if screen:
            lower, upper = self._screen_seeds(
                prop, r, fallback,
                split=None if axis == "total" else (axis, other))
        return galloping_max_bounded(
            lambda k: self._probe(spec(k), limits), upper, lower=lower)

    # ------------------------------------------------------------------
    # Model export (always through the fresh analyzer)
    # ------------------------------------------------------------------

    def model_size(self, spec: ResiliencySpec) -> Dict[str, int]:
        """Encoded model size (vars/clauses) without solving."""
        return self.analyzer.model_size(spec)

    def export_cnf(self, spec: ResiliencySpec) -> Tuple[object, set]:
        """The Tseitin CNF of the threat model plus frozen variables."""
        return self.analyzer.export_cnf(spec)

    def export_smtlib(self, spec: ResiliencySpec) -> str:
        """The threat-verification model as an SMT-LIB 2 script."""
        return self.analyzer.export_smtlib(spec)

    def __repr__(self) -> str:
        return (f"VerificationEngine({self.network.name!r}, "
                f"backend={self.backend_name!r})")
