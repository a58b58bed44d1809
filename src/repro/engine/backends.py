"""The two verification backends.

Both answer the same two questions — "does a threat vector exist
within this spec's budgets?" and "enumerate them" — but trade encoding
work differently:

* ``fresh`` — re-encode the whole model into a new solver per query
  (the original :class:`~repro.core.analyzer.ScadaAnalyzer` path).  It
  is the independent oracle, the only path that certifies (RUP proofs
  need an assumption-free solve), and the cheapest for one-shot cells.
* ``assumption`` — encode the budget-independent part once per
  (property, link-modeling) key, cached in the engine's encoding cache;
  budgets (and the bad-data ``r``) are selected by assumption literals
  over persistent extendable counters, so *all* learned clauses survive
  across budgets and one cached context serves every ``(k, r)``.  This
  is the warm path of the service, the watchers and max-resiliency
  searches.

Both return :class:`~repro.core.results.VerificationResult` objects
carrying per-query solver statistics and are verdict-equivalent by
construction (differential-tested in ``tests/engine``).
"""

from __future__ import annotations

import weakref
from typing import List, Optional, Protocol

from ..core.analyzer import ScadaAnalyzer
from ..core.incremental import IncrementalContext
from ..core.problem import ObservabilityProblem
from ..core.reference import ReferenceEvaluator
from ..core.results import ThreatVector, VerificationResult
from ..core.specs import ResiliencySpec
from ..obs.tracer import event as obs_event
from ..sat.limits import Limits, ResourceLimitReached
from ..scada.network import ScadaNetwork
from .cache import EncodingCache, EncodingKey

__all__ = [
    "BACKEND_NAMES",
    "AssumptionBackend",
    "FreshBackend",
    "VerificationBackend",
    "check_backend",
    "make_backend",
]

BACKEND_NAMES = ("fresh", "assumption")


def check_backend(name: str) -> str:
    """*name* if it is a backend; otherwise a ``ValueError`` naming them."""
    if name not in BACKEND_NAMES:
        raise ValueError(f"unknown backend {name!r}; expected one of "
                         f"{', '.join(BACKEND_NAMES)}")
    return name


class VerificationBackend(Protocol):
    """What the engine requires of a backend."""

    name: str

    def verify(self, spec: ResiliencySpec, minimize: bool = True,
               max_conflicts: Optional[int] = None,
               certify: bool = False,
               limits: Optional[Limits] = None) -> VerificationResult:
        """Verify one spec; the result carries backend name + stats."""
        ...

    def enumerate(self, spec: ResiliencySpec,
                  limit: Optional[int] = None,
                  minimal: bool = True,
                  max_conflicts: Optional[int] = None,
                  limits: Optional[Limits] = None
                  ) -> List[ThreatVector]:
        """All (minimal) threat vectors within the spec's budgets."""
        ...

    def interrupt(self) -> None:
        """Cooperatively abort the running (or next) query."""
        ...

    def clear_interrupt(self) -> None:
        """Re-arm the backend after an :meth:`interrupt`."""
        ...


class FreshBackend:
    """One fresh solver and full re-encode per query."""

    name = "fresh"

    def __init__(self, network: ScadaNetwork,
                 problem: ObservabilityProblem,
                 card_encoding: str = "totalizer",
                 reference: Optional[ReferenceEvaluator] = None) -> None:
        # Lint runs once in the engine; backends never re-lint.
        self.analyzer = ScadaAnalyzer(
            network, problem, card_encoding=card_encoding, lint=False,
            reference=reference)

    def verify(self, spec: ResiliencySpec, minimize: bool = True,
               max_conflicts: Optional[int] = None,
               certify: bool = False,
               limits: Optional[Limits] = None) -> VerificationResult:
        return self.analyzer.verify(spec, minimize=minimize,
                                    max_conflicts=max_conflicts,
                                    certify=certify, limits=limits)

    def enumerate(self, spec: ResiliencySpec,
                  limit: Optional[int] = None,
                  minimal: bool = True,
                  max_conflicts: Optional[int] = None,
                  limits: Optional[Limits] = None
                  ) -> List[ThreatVector]:
        return self.analyzer.enumerate_threat_vectors(
            spec, limit=limit, minimal=minimal,
            max_conflicts=max_conflicts, limits=limits)

    def interrupt(self) -> None:
        """Cooperatively abort the running (or next) query."""
        self.analyzer.interrupt()

    def clear_interrupt(self) -> None:
        """Re-arm the backend after an :meth:`interrupt`."""
        self.analyzer.clear_interrupt()


class AssumptionBackend:
    """Cached base encodings with assumption-selected budgets.

    Each query's budgets are activated by assumption literals over
    persistent, extendable cardinality counters
    (:class:`~repro.smt.BudgetHandle`), so learned clauses are never
    discarded between budgets and bad-data contexts serve every ``r``.
    """

    name = "assumption"

    def __init__(self, network: ScadaNetwork,
                 problem: ObservabilityProblem,
                 card_encoding: str = "totalizer",
                 reference: Optional[ReferenceEvaluator] = None,
                 cache: Optional[EncodingCache] = None) -> None:
        self.network = network
        self.problem = problem
        self.card_encoding = card_encoding
        self.reference = reference or ReferenceEvaluator(network, problem)
        self.cache = cache if cache is not None else EncodingCache()
        self._network_fp = network.fingerprint()
        self._problem_fp = problem.fingerprint()
        self._certify_fallback: Optional[FreshBackend] = None
        # Every context this backend has handed out, weakly held: an
        # interrupt must reach whichever context is solving right now
        # without pinning contexts the cache has already evicted.
        self._live_contexts: "weakref.WeakSet[IncrementalContext]" = \
            weakref.WeakSet()
        self._interrupt_requested = False

    def _context(
        self, spec: ResiliencySpec,
    ) -> "tuple[EncodingKey, IncrementalContext]":
        key = EncodingKey(
            network_fingerprint=self._network_fp,
            problem_fingerprint=self._problem_fp,
            prop=spec.property,
            model_links=spec.link_k is not None,
            card_encoding=self.card_encoding,
        )
        def build() -> IncrementalContext:
            ctx = IncrementalContext(
                self.network, self.problem, prop=spec.property,
                model_links=spec.link_k is not None,
                card_encoding=self.card_encoding,
                reference=self.reference)
            obs_event("backend.context_created", backend=self.name,
                      prop=spec.property.value,
                      base_encode_time=ctx.base_encode_time)
            return ctx

        ctx = self.cache.get_or_create(key, build)
        self._live_contexts.add(ctx)
        if self._interrupt_requested:
            ctx.interrupt()
        return key, ctx

    def interrupt(self) -> None:
        """Cooperatively abort the running (or next) query.

        Reaches every live context's shared solver (the one actually
        searching answers UNKNOWN with limit reason ``interrupt`` and
        unwinds cleanly — cached base encodings stay warm) and stays
        armed for contexts built after the call.  Sticky until
        :meth:`clear_interrupt`.
        """
        self._interrupt_requested = True
        for ctx in list(self._live_contexts):
            ctx.interrupt()
        if self._certify_fallback is not None:
            self._certify_fallback.interrupt()

    def clear_interrupt(self) -> None:
        """Re-arm the backend after an :meth:`interrupt`."""
        self._interrupt_requested = False
        for ctx in list(self._live_contexts):
            ctx.clear_interrupt()
        if self._certify_fallback is not None:
            self._certify_fallback.clear_interrupt()

    def verify(self, spec: ResiliencySpec, minimize: bool = True,
               max_conflicts: Optional[int] = None,
               certify: bool = False,
               limits: Optional[Limits] = None) -> VerificationResult:
        if certify:
            # RUP proof logging needs an assumption-free solver; run
            # certified queries through a fresh analyzer instead.
            if self._certify_fallback is None:
                self._certify_fallback = FreshBackend(
                    self.network, self.problem,
                    card_encoding=self.card_encoding,
                    reference=self.reference)
            obs_event("backend.certify_fallback", backend=self.name)
            result = self._certify_fallback.verify(
                spec, minimize=minimize, max_conflicts=max_conflicts,
                certify=True, limits=limits)
            result.details["certify_fallback"] = "fresh"
            return result
        key, ctx = self._context(spec)
        try:
            return ctx.verify(spec, minimize=minimize,
                              max_conflicts=max_conflicts, limits=limits)
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

    def enumerate(self, spec: ResiliencySpec,
                  limit: Optional[int] = None,
                  minimal: bool = True,
                  max_conflicts: Optional[int] = None,
                  limits: Optional[Limits] = None
                  ) -> List[ThreatVector]:
        key, ctx = self._context(spec)
        try:
            return ctx.enumerate(
                spec, limit=limit, minimal=minimal,
                max_conflicts=max_conflicts, limits=limits)
        except ResourceLimitReached:
            raise
        except Exception:
            self.cache.invalidate(key)
            raise


def make_backend(name: str, network: ScadaNetwork,
                 problem: ObservabilityProblem,
                 card_encoding: str = "totalizer",
                 reference: Optional[ReferenceEvaluator] = None,
                 cache: Optional[EncodingCache] = None
                 ) -> VerificationBackend:
    """Instantiate a backend by name (``fresh`` | ``assumption``)."""
    if check_backend(name) == "fresh":
        return FreshBackend(network, problem, card_encoding=card_encoding,
                            reference=reference)
    return AssumptionBackend(network, problem, card_encoding=card_encoding,
                             reference=reference, cache=cache)
