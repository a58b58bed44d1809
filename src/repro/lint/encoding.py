"""Layer 2a — static analysis of Tseitin-emitted CNF.

:func:`analyze_cnf` reports structural oddities of an encoding without
changing it: variables no clause mentions (CNF001), tautologies the
:class:`~repro.sat.cnf.CNF` container dropped at construction (CNF002),
duplicate clauses (CNF003), and pure literals (CNF004).  Variables in
*frozen* (named model variables, selectors, assumption candidates) are
exempt from the pure-literal report, since an assumption may force
either polarity later.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set, Tuple

from ..sat.cnf import CNF
from .diagnostics import Diagnostic, LintReport, Severity

__all__ = ["analyze_cnf"]

#: Cap on enumerated locations per rule, to keep reports readable on
#: large encodings.
_MAX_LISTED = 10


def _summarize(values: Iterable[int]) -> Tuple[List[int], int]:
    ordered = sorted(values)
    return ordered[:_MAX_LISTED], len(ordered)


def analyze_cnf(cnf: CNF, frozen: Iterable[int] = (),
                subject: str = "cnf") -> LintReport:
    """Run every encoding rule over *cnf* and return the report."""
    report = LintReport(subject=subject)
    frozen_set: Set[int] = set(frozen)

    occurrences: Dict[int, int] = {}
    seen: Dict[Tuple[int, ...], int] = {}
    duplicates: Set[Tuple[int, ...]] = set()
    for clause in cnf.clauses:
        key = tuple(clause)
        if key in seen:
            duplicates.add(key)
        else:
            seen[key] = 1
        for lit in clause:
            occurrences[lit] = occurrences.get(lit, 0) + 1

    mentioned = {abs(lit) for lit in occurrences}
    unconstrained = set(range(1, cnf.num_vars + 1)) - mentioned
    if unconstrained:
        shown, total = _summarize(unconstrained)
        report.append(Diagnostic(
            "CNF001", Severity.INFO,
            f"{total} of {cnf.num_vars} variables appear in no clause "
            f"(e.g. {', '.join(map(str, shown))}); they are dead weight "
            f"in the search",
            hint="hash-consing gaps or unasserted definitions usually "
                 "cause this"))

    if cnf.tautologies_dropped:
        report.append(Diagnostic(
            "CNF002", Severity.WARNING,
            f"{cnf.tautologies_dropped} tautological clauses were "
            f"dropped at construction; the encoder emitted constraints "
            f"that say nothing",
            hint="check gate definitions that mention a literal and its "
                 "negation"))

    if duplicates:
        shown_clauses = [list(c) for c in sorted(duplicates)][:_MAX_LISTED]
        report.append(Diagnostic(
            "CNF003", Severity.WARNING,
            f"{len(duplicates)} clauses occur more than once "
            f"(e.g. {shown_clauses[0]}); duplicates waste propagation "
            f"work",
            hint="emit each constraint once, or preprocess the formula"))

    pure = sorted(
        v for v in mentioned - frozen_set
        if (v in occurrences) != (-v in occurrences))
    if pure:
        shown, total = _summarize(pure)
        report.append(Diagnostic(
            "CNF004", Severity.INFO,
            f"{total} non-frozen variables occur in a single polarity "
            f"(e.g. {', '.join(map(str, shown))}); pure-literal "
            f"elimination would satisfy their clauses outright",
            hint="usually one-sided Tseitin definitions; the solver "
                 "assigns them without search"))

    return report
