"""Cardinality-constraint encodings.

The paper's model contains counting constraints in three places: the
failure budget (``N - Σ Node_i ≤ k``), the unique-measurement count
(``Σ DelUMsr_E ≥ n``), and bad-data redundancy (``Σ SE_{X,Z} ≥ r + 1``).
These are compiled to CNF here.

The encoding is :class:`Totalizer` — Bailleux & Boulier's unary
totalizer, truncated at the needed bound (*k-simplification*).  It is
*bidirectional*: output ``o_j`` is true **iff** at least ``j`` inputs
are true (with ``o_bound`` meaning "at least bound").  Bidirectionality
lets cardinality atoms appear under any polarity in a formula.

The counter is **extendable**: :meth:`CardinalityCounter.raise_bound`
grows the output chain *in place*, reusing every existing merge node,
so a budget sweep (or a galloping search that overshoots) never
rebuilds the tree.  The clauses added while the bound was lower stay
in the formula — they are sound (a count that saturated at the old top
output still implies that output) and merely redundant next to the
sharper clauses added for the new outputs.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence

__all__ = ["ClauseSink", "CardinalityCounter", "Totalizer"]


class ClauseSink(Protocol):
    """What the encoders need from a clause receiver.

    Both :class:`repro.sat.CNF` and :class:`repro.sat.SatSolver`
    satisfy this protocol, so counters can write into a formula
    container or feed a solver incrementally.
    """

    def new_var(self) -> int:
        ...

    def add_clause(self, lits: Sequence[int]) -> object:
        ...


class CardinalityCounter:
    """Common contract of a unary counter.

    ``outputs[j-1]`` (1-based count *j*) is a literal that is true iff
    at least ``j`` of the inputs are true, for every ``j`` up to
    ``bound``; ``bound`` saturates at ``len(lits)``.  Subclasses
    implement :meth:`_build` (initial construction) and :meth:`_grow`
    (in-place extension to a larger bound).
    """

    def __init__(self, cnf: ClauseSink, lits: Sequence[int],
                 bound: int) -> None:
        if bound < 1:
            raise ValueError("bound must be at least 1")
        self.cnf = cnf
        self.lits = list(lits)
        self.bound = min(bound, len(self.lits))
        self.outputs: List[int] = []
        if self.lits:
            self._build()

    def _build(self) -> None:
        raise NotImplementedError

    def _grow(self, new_bound: int) -> None:
        raise NotImplementedError

    def raise_bound(self, new_bound: int) -> None:
        """Grow the output chain in place to ``min(new_bound, n)``.

        Existing merge nodes and output literals are reused untouched —
        ``outputs[:old_bound]`` is unchanged — and only the defining
        clauses of the *new* outputs are added.
        Lowering the bound is a no-op: the counter already answers every
        query below its bound.
        """
        target = min(new_bound, len(self.lits))
        if target <= self.bound or not self.lits:
            return
        self._grow(target)
        self.bound = target


class _TotNode:
    """One merge node of the totalizer tree.

    Leaves carry a single input literal; internal nodes merge their
    children's unary counts.  ``width`` is the number of input literals
    below the node; ``outputs`` holds ``min(width, bound)`` literals.
    """

    __slots__ = ("left", "right", "width", "outputs")

    def __init__(self, left: Optional["_TotNode"],
                 right: Optional["_TotNode"],
                 width: int, outputs: List[int]) -> None:
        self.left = left
        self.right = right
        self.width = width
        self.outputs = outputs


class Totalizer(CardinalityCounter):
    """A truncated, bidirectional, extendable unary merge tree.

    The balanced tree built at construction is retained, so
    :meth:`raise_bound` extends each node's output chain in place:
    new output variables are allocated per node, forward/backward
    defining clauses are added only for count totals above the old
    bound, and every previously allocated variable keeps its meaning.
    """

    def _build(self) -> None:
        self._root = self._build_tree(self.lits)
        self._extend_node(self._root, self.bound)
        self.outputs = self._root.outputs

    def _grow(self, new_bound: int) -> None:
        self._extend_node(self._root, new_bound)
        self.outputs = self._root.outputs

    def _build_tree(self, lits: Sequence[int]) -> _TotNode:
        if len(lits) == 1:
            return _TotNode(None, None, 1, [lits[0]])
        mid = len(lits) // 2
        left = self._build_tree(lits[:mid])
        right = self._build_tree(lits[mid:])
        return _TotNode(left, right, left.width + right.width, [])

    def _extend_node(self, node: _TotNode, bound: int) -> None:
        """Bring *node* (and its subtree) up to ``min(width, bound)``
        outputs, adding only the clauses the new outputs need."""
        if node.left is None or node.right is None:
            return  # leaf: its output *is* the input literal
        target = min(node.width, bound)
        old = len(node.outputs)
        if old >= target:
            return
        self._extend_node(node.left, bound)
        self._extend_node(node.right, bound)
        cnf = self.cnf
        left = node.left.outputs
        right = node.right.outputs
        node.outputs.extend(cnf.new_var() for _ in range(target - old))
        out = node.outputs

        # Forward: ≥i on the left and ≥j on the right imply
        # ≥min(i+j, target) overall.  (i = 0 / j = 0 impose no premise.)
        # Totals at or below the old size already have their exact
        # clause; totals above it previously saturated into the old top
        # output (still sound) and now get their sharper clause.
        for i in range(len(left) + 1):
            for j in range(len(right) + 1):
                total = i + j
                if total <= old:
                    continue
                clause = [out[min(total, target) - 1]]
                if i > 0:
                    clause.append(-left[i - 1])
                if j > 0:
                    clause.append(-right[j - 1])
                cnf.add_clause(clause)

        # Backward: out_t implies that every split i + j = t - 1 has
        # ≥i+1 on the left or ≥j+1 on the right.  A positive literal is
        # omitted when its count is unreachable on that side (then the
        # other side alone must account for the total).
        for t in range(old + 1, target + 1):
            for i in range(t):
                j = t - 1 - i
                clause = [-out[t - 1]]
                if i < len(left):
                    clause.append(left[i])
                if j < len(right):
                    clause.append(right[j])
                cnf.add_clause(clause)

