"""SMT layer: Boolean/cardinality terms, Tseitin encoding, solver facade.

Together with :mod:`repro.sat` this package stands in for Z3 in the
paper's toolchain: the paper's constraint language (Boolean logic plus
counting sums over Booleans) maps onto terms here one-to-one.
"""

from ..sat.limits import LimitReason, Limits, ResourceLimitReached
from .cardinality import CardinalityCounter, ClauseSink, Totalizer
from .smtlib import term_to_sexpr, to_smtlib
from .solver import BudgetHandle, Model, Result, Solver, SolverStatistics
from .terms import (
    FALSE,
    TRUE,
    And,
    AtLeast,
    AtMost,
    Bool,
    Bools,
    BoolVal,
    BoolVar,
    CardTerm,
    Exactly,
    Iff,
    Implies,
    Ite,
    Not,
    Or,
    Term,
    Xor,
    evaluate,
)
from .tseitin import Encoder

__all__ = [
    "And", "AtLeast", "AtMost", "Bool", "Bools", "BoolVal", "BoolVar",
    "BudgetHandle", "CardTerm", "CardinalityCounter", "ClauseSink",
    "Encoder", "Exactly", "FALSE", "Iff", "Implies", "Ite",
    "LimitReason", "Limits", "Model", "Not", "Or", "ResourceLimitReached",
    "Result", "Solver", "SolverStatistics", "TRUE", "Term", "Totalizer",
    "Xor", "evaluate", "term_to_sexpr", "to_smtlib",
]
