"""Tseitin transformation: Boolean terms to CNF over a clause sink.

Every gate receives a definition literal with *full* (bidirectional)
defining clauses, so terms can appear under arbitrary polarity and
models translate back to term valuations exactly.  Cardinality atoms are
compiled through the bidirectional truncated totalizer from
:mod:`repro.smt.cardinality`.

The *sink* only needs ``new_var()`` and ``add_clause(lits)``; both
:class:`repro.sat.CNF` and :class:`repro.sat.SatSolver` satisfy that
protocol, so the encoder can write into a formula container or feed a
solver incrementally.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from .cardinality import CardinalityCounter, ClauseSink, Totalizer
from .terms import (
    AndTerm, BoolVal, BoolVar, CardTerm, IteTerm, NotTerm, OrTerm, Term,
    XorTerm,
)

__all__ = ["Encoder"]


class Encoder:
    """Incremental Tseitin encoder with structural hash-consing."""

    def __init__(self, sink: ClauseSink) -> None:
        self.sink = sink
        self._cache: Dict[Tuple, int] = {}
        self._var_names: Dict[str, int] = {}
        # Keyed on the *sorted* literal tuple: counting is
        # order-independent, so AtMost/AtLeast atoms over the same set
        # in different literal orders share one counter.
        self._totalizers: Dict[Tuple[int, ...], CardinalityCounter] = {}
        self._true_lit = 0

    # ------------------------------------------------------------------

    def var(self, name: str) -> int:
        """The solver variable backing the named Boolean variable."""
        lit = self._var_names.get(name)
        if lit is None:
            lit = self.sink.new_var()
            self._var_names[name] = lit
        return lit

    @property
    def var_names(self) -> Dict[str, int]:
        return dict(self._var_names)

    def true_literal(self) -> int:
        """A literal asserted true (used for stray Boolean constants)."""
        if not self._true_lit:
            self._true_lit = self.sink.new_var()
            self.sink.add_clause([self._true_lit])
        return self._true_lit

    # ------------------------------------------------------------------

    def literal(self, term: Term) -> int:
        """Return a DIMACS literal equivalent to *term*.

        Defining clauses are added to the sink as needed; repeated terms
        (by structure) reuse their existing encoding.
        """
        key = term.key()
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        lit = self._encode(term)
        self._cache[key] = lit
        return lit

    def assert_term(self, term: Term) -> None:
        """Assert *term* at the top level."""
        if isinstance(term, BoolVal):
            if not term.value:
                self.sink.add_clause([])
            return
        if isinstance(term, AndTerm):
            for arg in term.args:
                self.assert_term(arg)
            return
        self.sink.add_clause([self.literal(term)])

    # ------------------------------------------------------------------

    def _encode(self, term: Term) -> int:
        sink = self.sink
        if isinstance(term, BoolVal):
            t = self.true_literal()
            return t if term.value else -t
        if isinstance(term, BoolVar):
            return self.var(term.name)
        if isinstance(term, NotTerm):
            return -self.literal(term.arg)
        if isinstance(term, AndTerm):
            lits = [self.literal(a) for a in term.args]
            g = sink.new_var()
            long_clause = [g]
            for lit in lits:
                sink.add_clause([-g, lit])
                long_clause.append(-lit)
            sink.add_clause(long_clause)
            return g
        if isinstance(term, OrTerm):
            lits = [self.literal(a) for a in term.args]
            g = sink.new_var()
            long_clause = [-g]
            for lit in lits:
                sink.add_clause([g, -lit])
                long_clause.append(lit)
            sink.add_clause(long_clause)
            return g
        if isinstance(term, XorTerm):
            a = self.literal(term.left)
            b = self.literal(term.right)
            g = sink.new_var()
            sink.add_clause([-g, a, b])
            sink.add_clause([-g, -a, -b])
            sink.add_clause([g, -a, b])
            sink.add_clause([g, a, -b])
            return g
        if isinstance(term, IteTerm):
            c = self.literal(term.cond)
            t = self.literal(term.then)
            e = self.literal(term.other)
            g = sink.new_var()
            sink.add_clause([-g, -c, t])
            sink.add_clause([-g, c, e])
            sink.add_clause([g, -c, -t])
            sink.add_clause([g, c, -e])
            return g
        if isinstance(term, CardTerm):
            return self._encode_card(term)
        raise TypeError(f"cannot encode term of type {type(term).__name__}")

    def _encode_card(self, term: CardTerm) -> int:
        lits = [self.literal(a) for a in term.args]
        # The constructors guarantee 0 < k < n for AtMost and
        # 1 < k < n for AtLeast, but guard anyway for direct CardTerm use.
        n = len(lits)
        if term.at_most:
            if term.k >= n:
                return self.true_literal()
            bound = term.k + 1
        else:
            if term.k <= 0:
                return self.true_literal()
            if term.k > n:
                return -self.true_literal()
            bound = term.k
        outputs = self.card_outputs(lits, bound)
        if term.at_most:
            return -outputs[term.k]
        return outputs[term.k - 1]

    def card_outputs(self, lits: Sequence[int], bound: int) -> List[int]:
        """Unary-counter outputs over *lits* with ≥ *bound* of them.

        One extendable counter is kept per literal *multiset* (the cache
        key is the sorted literal tuple, so atoms over the same set in a
        different order share it); when a larger bound is requested
        later, the counter's output chain is grown in place via
        :meth:`~repro.smt.cardinality.CardinalityCounter.raise_bound`
        instead of rebuilding the tree.
        """
        key = tuple(sorted(lits))
        existing = self._totalizers.get(key)
        if existing is not None:
            existing.raise_bound(bound)
            return existing.outputs
        counter = Totalizer(self.sink, list(lits), bound)
        self._totalizers[key] = counter
        return counter.outputs

    # ------------------------------------------------------------------

    def decode(self, term: Term, model: Sequence[bool]) -> bool:
        """Evaluate *term* under a solver model (list indexed by var).

        Terms already encoded use their cached literal; unencoded terms
        are evaluated structurally.  Unencoded *variables* default to
        False (they are unconstrained).
        """
        key = term.key()
        lit = self._cache.get(key)
        if lit is not None:
            v = lit if lit > 0 else -lit
            if v < len(model):
                value = model[v]
                return value if lit > 0 else not value
        if isinstance(term, BoolVal):
            return term.value
        if isinstance(term, BoolVar):
            var = self._var_names.get(term.name)
            if var is None or var >= len(model):
                return False
            return model[var]
        if isinstance(term, NotTerm):
            return not self.decode(term.arg, model)
        if isinstance(term, AndTerm):
            return all(self.decode(a, model) for a in term.args)
        if isinstance(term, OrTerm):
            return any(self.decode(a, model) for a in term.args)
        if isinstance(term, XorTerm):
            return self.decode(term.left, model) != self.decode(term.right, model)
        if isinstance(term, IteTerm):
            if self.decode(term.cond, model):
                return self.decode(term.then, model)
            return self.decode(term.other, model)
        if isinstance(term, CardTerm):
            count = sum(1 for a in term.args if self.decode(a, model))
            return count <= term.k if term.at_most else count >= term.k
        raise TypeError(f"cannot decode term of type {type(term).__name__}")
