"""Static analysis for SCADA configurations and CNF encodings.

Two layers over one structured-diagnostic core:

* :func:`lint_case` — polynomial-time configuration rules (``SCADA*``)
  over :class:`~repro.scada.network.ScadaNetwork` and
  :class:`~repro.core.problem.ObservabilityProblem`;
* :func:`analyze_cnf` — encoding diagnostics (``CNF*``) for the
  Tseitin-emitted formulas.

``docs/FORMAL_MODEL.md`` documents every rule code with its formal
justification.
"""

from .config_rules import lint_case
from .diagnostics import RULES, Diagnostic, LintReport, Severity
from .encoding import analyze_cnf

__all__ = [
    "Diagnostic",
    "LintReport",
    "RULES",
    "Severity",
    "analyze_cnf",
    "lint_case",
]
