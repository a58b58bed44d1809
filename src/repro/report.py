"""Audit-report generation.

Bundles the analyses a grid operator would run on one configuration —
verdicts across a specification ladder, maximal resiliency, the threat
space one step past the certificate, breach-point ranking, cheapest
attack, and hardening suggestions — into a single Markdown document.
Exposed on the CLI as ``python -m repro report <config>``.

Verification runs through one fresh-path
:class:`~repro.engine.VerificationEngine`, except the maximal-resiliency
searches: they run in turn on one ``assumption``-path engine that
shares the fresh engine's reference evaluator.
"""

from __future__ import annotations

import io
from collections import Counter
from typing import Optional

from .analysis import (
    cheapest_threat,
    threat_space,
    uniform_costs,
)
from .core import (
    ObservabilityProblem,
    Property,
    ResiliencySpec,
    SearchBounds,
)
from .core.hardening import harden
from .engine import VerificationEngine
from .obs.tracer import span as obs_span
from .sat.limits import Limits, ResourceLimitReached
from .scada.network import ScadaNetwork

__all__ = ["audit_report"]


def audit_report(network: ScadaNetwork, problem: ObservabilityProblem,
                 threat_limit: int = 100,
                 include_hardening: bool = True,
                 include_attack_cost: bool = True,
                 limits: Optional[Limits] = None) -> str:
    """Produce a Markdown resiliency-audit report for one configuration.

    *limits* bounds every individual solve.  Sections degrade honestly
    when a budget expires: maxima are reported as ``≥ lower`` brackets,
    threat spaces as partial counts, and the cheapest-attack line notes
    the exhausted budget — the report never upgrades an UNKNOWN to a
    verdict.
    """
    with obs_span("report"):
        return _audit_report(network, problem, threat_limit,
                             include_hardening, include_attack_cost,
                             limits)


def _audit_report(network: ScadaNetwork, problem: ObservabilityProblem,
                  threat_limit: int, include_hardening: bool,
                  include_attack_cost: bool,
                  limits: Optional[Limits]) -> str:
    engine = VerificationEngine(network, problem, backend="fresh")
    out = io.StringIO()

    out.write(f"# SCADA resiliency audit — {network.name}\n\n")
    out.write("## Inventory\n\n")
    out.write(f"- {len(network.ied_ids)} IEDs, "
              f"{len(network.rtu_ids)} RTUs, "
              f"{len(network.router_ids)} router(s), 1 MTU\n")
    out.write(f"- {len(network.topology.links)} communication links\n")
    out.write(f"- {problem.num_measurements} measurements "
              f"({problem.num_components} unique components) over "
              f"{problem.num_states} states\n")
    insecure = [ied for ied in network.ied_ids
                if not network.secured_paths(ied)]
    if insecure:
        names = ", ".join(network.label(i) for i in insecure)
        out.write(f"- **unprotected data sources** (no authenticated + "
                  f"integrity-protected path): {names}\n")
    out.write("\n")

    out.write("## Maximal resiliency\n\n")
    out.write("| property | any devices | IEDs only | RTUs only |\n")
    out.write("|---|---|---|---|\n")
    props = (Property.OBSERVABILITY, Property.SECURED_OBSERVABILITY,
             Property.COMMAND_DELIVERABILITY)
    maxima = {}
    inexact_maxima = False
    warm = VerificationEngine(network, problem, backend="assumption",
                              lint=False, reference=engine.reference)
    for prop in props:
        total, ied, rtu = (warm.max_resiliency(prop, axis=axis,
                                               limits=limits)
                           for axis in ("total", "ied", "rtu"))
        maxima[prop] = total
        inexact_maxima |= not (total.exact and ied.exact and rtu.exact)
        out.write(f"| {prop.value} | {_fmt_k(total)} | {_fmt_k(ied)} | "
                  f"{_fmt_k(rtu)} |\n")
    out.write("\n(−: the property fails even with zero failures)\n")
    if inexact_maxima:
        out.write("(≥ / ?: the solver budget expired before the search "
                  "finished; only the proven lower bound is shown)\n")
    out.write("\n")

    out.write("## Threat space beyond the certificate\n\n")
    for prop in (Property.OBSERVABILITY, Property.SECURED_OBSERVABILITY):
        # Past an inexact certificate the step-beyond budget is itself
        # only a lower bound; the enumeration stays sound (every vector
        # reported is real), it just may not be the tightest frontier.
        k_star = maxima[prop].lower
        spec = _spec(prop, max(k_star, -1) + 1)
        space = threat_space(engine, spec, limit=threat_limit,
                             limits=limits)
        suffix = "+" if not space.exact else ""
        out.write(f"### {spec.describe()}\n\n")
        if space.incomplete:
            reason = space.limit_reason or "resource"
            out.write(f"(enumeration stopped early: {reason} budget "
                      f"expired)\n\n")
        out.write(f"{space.size}{suffix} minimal threat vector(s)")
        if space.vectors:
            out.write(f"; sizes {space.by_size()}\n\n")
            for vector in space.vectors[:8]:
                out.write(f"- {vector.describe(network.label)}\n")
            if space.size > 8:
                out.write(f"- … and {space.size - 8} more\n")
            ranking = Counter()
            for vector in space.vectors:
                ranking.update(vector.failed_devices)
            out.write("\nBreach-point ranking (participation in threat "
                      "vectors):\n\n")
            for device, count in ranking.most_common(5):
                share = 100.0 * count / space.size
                out.write(f"- {network.label(device)}: {count} "
                          f"({share:.0f}%)\n")
        else:
            out.write(".\n")
        out.write("\n")

    if include_attack_cost:
        out.write("## Cheapest attack\n\n")
        costs = uniform_costs(engine, ied_cost=1, rtu_cost=3)
        out.write("Costs: IED = 1, RTU = 3.\n\n")
        for prop in (Property.OBSERVABILITY,
                     Property.SECURED_OBSERVABILITY):
            try:
                result = cheapest_threat(engine, prop, costs,
                                         limits=limits)
            except ResourceLimitReached as exc:
                reason = exc.reason.value if exc.reason else "resource"
                out.write(f"- {prop.value}: undetermined — {reason} "
                          f"budget expired mid-search\n")
                continue
            out.write(f"- {result.summary()}\n")
        out.write("\n")

    if include_hardening:
        out.write("## Hardening suggestions\n\n")
        suggestions = 0
        for prop in (Property.OBSERVABILITY,
                     Property.SECURED_OBSERVABILITY):
            k_star = maxima[prop].lower
            target = _spec(prop, max(k_star, -1) + 1)
            try:
                repair = harden(network, problem, target,
                                max_repairs=2, max_verify_calls=400,
                                limits=limits)
            except RuntimeError:
                out.write(f"- {target.describe()}: repair search budget "
                          f"exhausted\n")
                continue
            if repair.succeeded and repair.repairs:
                out.write(f"- {repair.summary()}\n")
                suggestions += 1
            elif not repair.succeeded:
                out.write(f"- {target.describe()}: no ≤2-step repair "
                          f"found\n")
        if not suggestions:
            out.write("\n(no single/double-step repair raises the "
                      "certificates)\n")
        out.write("\n")

    return out.getvalue()


def _fmt_k(bounds: SearchBounds) -> str:
    if bounds.exact:
        return "−" if bounds.lower < 0 else str(bounds.lower)
    # The search hit a budget: only the proven lower bound is sound.
    return "?" if bounds.lower < 0 else f"≥{bounds.lower}"


def _spec(prop: Property, k: int) -> ResiliencySpec:
    if prop is Property.OBSERVABILITY:
        return ResiliencySpec.observability(k=k)
    return ResiliencySpec.secured_observability(k=k)
