"""A z3py-style solver facade over the CDCL engine.

This is the interface the SCADA Analyzer programs against, mirroring the
small slice of the z3py API the paper's implementation would have used:
``add``, ``check`` (with assumptions), ``model``, ``push``/``pop``, and
``unsat_core``.
"""

from __future__ import annotations

import contextlib
import enum
import time
from typing import Dict, Iterator, List, Optional, Sequence

from ..sat.hooks import SolverHooks
from ..sat.limits import LimitReason, Limits
from ..sat.solver import SatSolver
from .terms import FALSE, TRUE, BoolVar, Term
from .tseitin import Encoder

__all__ = ["Result", "Model", "Solver", "SolverStatistics",
           "BudgetHandle"]

#: Per-check search-effort counters mirrored from the SAT substrate.
#: ``learned_clauses``/``deleted_clauses`` let incremental callers
#: report how much of the clause database each query retained.
_SEARCH_FIELDS = ("conflicts", "decisions", "propagations", "restarts",
                  "learned_clauses", "deleted_clauses")


class Result(enum.Enum):
    """Outcome of a :meth:`Solver.check` call."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        raise TypeError(
            "Result does not coerce to bool; compare with Result.SAT/UNSAT")


class Model:
    """A satisfying assignment, queryable by term."""

    def __init__(self, encoder: Encoder, raw_model: List[bool]) -> None:
        self._encoder = encoder
        self._raw = raw_model

    def value(self, term: Term) -> bool:
        """Evaluate *term* under this model."""
        return self._encoder.decode(term, self._raw)

    def __getitem__(self, term: Term) -> bool:
        return self.value(term)

    def true_variables(self) -> List[str]:
        """Names of all encoded variables assigned true."""
        return sorted(
            name for name, var in self._encoder.var_names.items()
            if var < len(self._raw) and self._raw[var]
        )

    def __repr__(self) -> str:
        sample = self.true_variables()[:8]
        return f"Model(true={sample}{'...' if len(sample) == 8 else ''})"


class SolverStatistics:
    """Sizes and timings of the encoded problem and the last check."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.num_clauses = 0
        self.check_time = 0.0
        self.checks = 0
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.learned_clauses = 0
        self.deleted_clauses = 0

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)

    def __repr__(self) -> str:
        return (f"SolverStatistics(vars={self.num_vars}, "
                f"clauses={self.num_clauses}, checks={self.checks}, "
                f"time={self.check_time:.3f}s)")


class BudgetHandle:
    """Assumption selectors over one persistent, extendable counter.

    A handle reifies the family of cardinality bounds over a fixed
    multiset of terms: :meth:`at_most` (and :meth:`at_least`) return a
    named selector *term* equivalent to the bound, meant to be passed as
    an assumption to :meth:`Solver.check`.  All bounds share one
    extendable unary counter, grown in place as larger bounds are
    requested, so a budget sweep re-encodes nothing — and because the
    bound is selected by an assumption rather than a scoped assertion,
    every learned clause survives from one budget to the next.

    Selector definitions are permanent (a selector is *defined* as
    equivalent to its bound, which constrains nothing until assumed),
    so handles may be created at any scope depth without being lost to
    a later ``pop``.  Handles are obtained from
    :meth:`Solver.budget_handle` and cached there by name.
    """

    def __init__(self, solver: "Solver", name: str,
                 terms: Sequence[Term]) -> None:
        self._solver = solver
        self.name = name
        self.terms = tuple(terms)
        self._lits = [solver._encoder.literal(t) for t in self.terms]
        self._at_most: Dict[int, Term] = {}
        self._at_least: Dict[int, Term] = {}

    @property
    def size(self) -> int:
        """Number of counted terms (with multiplicity)."""
        return len(self._lits)

    def at_most(self, k: int) -> Term:
        """A selector term: assuming it enforces ``count <= k``."""
        if k < 0:
            return FALSE
        if k >= len(self._lits):
            return TRUE
        sel = self._at_most.get(k)
        if sel is None:
            sel = self._define(k, at_most=True)
            self._at_most[k] = sel
        return sel

    def at_least(self, k: int) -> Term:
        """A selector term: assuming it enforces ``count >= k``."""
        if k <= 0:
            return TRUE
        if k > len(self._lits):
            return FALSE
        sel = self._at_least.get(k)
        if sel is None:
            sel = self._define(k, at_most=False)
            self._at_least[k] = sel
        return sel

    def _define(self, k: int, at_most: bool) -> Term:
        """Define (once) the selector variable for one bound.

        The counter's bidirectional output ``o_j`` is true iff at least
        ``j`` counted terms are true, so ``count <= k`` is exactly
        ``-o_{k+1}`` and ``count >= k`` is ``o_k``; the selector is a
        named variable defined equivalent to that output literal.
        """
        encoder = self._solver._encoder
        outputs = encoder.card_outputs(self._lits, k + 1 if at_most else k)
        gate = -outputs[k] if at_most else outputs[k - 1]
        op = "le" if at_most else "ge"
        var = BoolVar(f"__budget[{self.name}]::{op}{k}")
        sel = encoder.literal(var)
        self._solver._sat.add_clause([-sel, gate])
        self._solver._sat.add_clause([sel, -gate])
        return var


class Solver:
    """SMT-style solver for Boolean + cardinality terms.

    ``push``/``pop`` are implemented with activation literals: each level
    owns a selector variable, clauses added at that level are guarded by
    it, and ``check`` passes the live selectors as solver assumptions.

    For query sequences that differ only in a cardinality bound,
    :meth:`budget_handle` offers a cheaper alternative to push/pop:
    budget selection by assumption literal over a persistent counter,
    with no per-query encoding and full learned-clause reuse.
    """

    def __init__(self, produce_proof: bool = False) -> None:
        self._sat = SatSolver()
        if produce_proof:
            self._sat.enable_proof()
        self._encoder = Encoder(self._sat)
        self._selectors: List[int] = []
        self._budget_handles: Dict[str, BudgetHandle] = {}
        self._assertions: List[List[Term]] = [[]]
        self._model: Optional[Model] = None
        self._core_terms: List[Term] = []
        #: Why the last :meth:`check` answered UNKNOWN (``None`` after
        #: a decided answer).
        self.last_limit_reason: Optional[LimitReason] = None
        self.statistics = SolverStatistics()
        #: Search-effort deltas of the most recent :meth:`check` call —
        #: conflicts, decisions, propagations, restarts, and time — so
        #: callers can report per-query statistics even on a shared
        #: incremental solver.
        self.last_check_stats: Dict[str, float] = {}

    # ------------------------------------------------------------------

    def add(self, *terms: Term) -> None:
        """Assert terms at the current scope level."""
        for term in terms:
            if not isinstance(term, Term):
                raise TypeError(f"expected Term, got {type(term).__name__}")
            self._assertions[-1].append(term)
            if self._selectors:
                lit = self._encoder.literal(term)
                self._sat.add_clause([-self._selectors[-1], lit])
            else:
                self._encoder.assert_term(term)

    def push(self) -> None:
        """Open a new assertion scope."""
        self._selectors.append(self._sat.new_var())
        self._assertions.append([])

    def pop(self) -> None:
        """Discard the most recent scope and its assertions."""
        if not self._selectors:
            raise RuntimeError("pop without matching push")
        selector = self._selectors.pop()
        self._assertions.pop()
        # Permanently disable the scope's clauses.
        self._sat.add_clause([-selector])

    @property
    def scope_depth(self) -> int:
        """Number of currently open push/pop scopes."""
        return len(self._selectors)

    def pop_all(self, base_depth: int = 0) -> None:
        """Pop every scope above *base_depth*.

        The cache-safe reset: a shared (cached) incremental solver must
        return to its base encoding even when a query aborts mid-scope
        (extraction error, conflict-budget exhaustion), otherwise the
        next query would inherit stale budget constraints.
        """
        if base_depth < 0:
            raise ValueError("base_depth must be non-negative")
        while len(self._selectors) > base_depth:
            self.pop()

    def budget_handle(self, terms: Sequence[Term],
                      name: str) -> BudgetHandle:
        """A named :class:`BudgetHandle` over *terms*.

        The handle is created on first use and cached by *name*;
        requesting an existing name with a different term multiset is an
        error.  Duplicated terms are counted with multiplicity, which is
        how weighted budgets (``Σ cost_i · x_i <= C``) are expressed.
        """
        existing = self._budget_handles.get(name)
        if existing is not None:
            if tuple(t.key() for t in terms) != tuple(
                    t.key() for t in existing.terms):
                raise ValueError(
                    f"budget handle {name!r} already exists over a "
                    f"different term multiset")
            return existing
        handle = BudgetHandle(self, name, terms)
        self._budget_handles[name] = handle
        return handle

    @contextlib.contextmanager
    def scope(self) -> Iterator["Solver"]:
        """``with solver.scope():`` — push now, always pop on exit."""
        depth = self.scope_depth
        self.push()
        try:
            yield self
        finally:
            self.pop_all(depth)

    def assertions(self) -> List[Term]:
        """All currently live assertions, outermost first."""
        return [t for level in self._assertions for t in level]

    # ------------------------------------------------------------------

    def interrupt(self) -> None:
        """Cooperatively abort the running (or next) :meth:`check`.

        Thread-safe in the cooperative sense: the underlying CDCL loop
        polls the flag and answers :data:`Result.UNKNOWN` with
        :attr:`last_limit_reason` ``INTERRUPT``.  Sticky until
        :meth:`clear_interrupt`.
        """
        self._sat.interrupt()

    def clear_interrupt(self) -> None:
        """Re-arm the solver after an :meth:`interrupt`."""
        self._sat.clear_interrupt()

    def set_hooks(self, hooks: Optional[SolverHooks]) -> None:
        """Install (or clear, with ``None``) a solver event observer.

        The disabled state costs the search one attribute check (see
        :mod:`repro.sat.hooks`).
        """
        self._sat.hooks = hooks

    def check(self, *assumptions: Term,
              limits: Optional[Limits] = None) -> Result:
        """Solve the current assertions under optional assumption terms.

        *limits* bounds the solve; an expired budget yields
        :data:`Result.UNKNOWN` with :attr:`last_limit_reason` set —
        never a spurious sat/unsat.
        """
        self._model = None
        self._core_terms = []
        self.last_limit_reason = None
        assumption_lits: List[int] = list(self._selectors)
        lit_to_term: Dict[int, Term] = {}
        for term in assumptions:
            lit = self._encoder.literal(term)
            assumption_lits.append(lit)
            lit_to_term[lit] = term

        started = time.perf_counter()
        before = self._sat.stats.as_dict()
        outcome = self._sat.solve(assumptions=assumption_lits,
                                  limits=limits)
        delta = self._sat.stats.delta(before)
        elapsed = time.perf_counter() - started
        self.statistics.check_time += elapsed
        self.statistics.checks += 1
        self.statistics.num_vars = self._sat.num_vars
        self.statistics.num_clauses = self._sat.num_clauses_added
        for field in _SEARCH_FIELDS:
            self.statistics.__dict__[field] += delta[field]
        self.last_check_stats = {f: float(delta[f]) for f in _SEARCH_FIELDS}
        self.last_check_stats["check_time"] = elapsed
        # Instantaneous tier snapshot (gauges, not deltas): lets the
        # session layer show where a warm solver's learned clauses sit.
        core, mid, local = self._sat.tier_sizes
        self.last_check_stats["tier_core"] = float(core)
        self.last_check_stats["tier_mid"] = float(mid)
        self.last_check_stats["tier_local"] = float(local)

        if outcome is None:
            self.last_limit_reason = self._sat.limit_reason
            return Result.UNKNOWN
        if outcome:
            self._model = Model(self._encoder, list(self._sat.model))
            return Result.SAT
        self._core_terms = [
            lit_to_term[lit] for lit in self._sat.core() if lit in lit_to_term
        ]
        return Result.UNSAT

    def model(self) -> Model:
        """The model from the last sat check."""
        if self._model is None:
            raise RuntimeError("model() requires a preceding sat check")
        return self._model

    def unsat_core(self) -> List[Term]:
        """Assumption terms forming an unsat core of the last check."""
        return list(self._core_terms)

    # ------------------------------------------------------------------

    @property
    def num_vars(self) -> int:
        return self._sat.num_vars

    @property
    def num_clauses(self) -> int:
        """Encoded clause count (before level-0 simplification)."""
        return self._sat.num_clauses_added

    def validate_unsat_proof(self) -> bool:
        """Re-check the last unsat answer with the independent RUP
        checker.  Only valid after an assumption-free UNSAT from a
        solver constructed with ``produce_proof=True``.
        """
        from ..sat.proof import check_unsat_proof

        if self._selectors:
            raise RuntimeError("proof validation is not supported with "
                               "open push/pop scopes")
        proof = self._sat.proof
        if proof is None:
            raise RuntimeError("solver was not constructed with "
                               "produce_proof=True")
        originals, learned = proof
        return check_unsat_proof(originals, learned,
                                 num_vars=self._sat.num_vars)
