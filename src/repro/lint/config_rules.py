"""Layer 1 — static rules over SCADA configurations.

:func:`lint_case` inspects a :class:`~repro.scada.network.ScadaNetwork`
(ideally built with ``strict=False`` so structural defects survive to
be reported), an :class:`~repro.core.problem.ObservabilityProblem`, and
optionally a :class:`~repro.core.specs.ResiliencySpec`, and returns a
:class:`~repro.lint.diagnostics.LintReport`.

Every rule pre-checks a constraint of the paper's formal model in
polynomial time, without invoking the solver; the formal justification
of each code lives in ``docs/FORMAL_MODEL.md``.  Error-level findings
are defects under which SAT verdicts are meaningless (dangling
references) or foregone (a statically unobservable state); warnings are
likely misconfigurations that keep the model well defined.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.problem import ObservabilityProblem
from ..core.specs import Property, ResiliencySpec
from ..graphs.flow import unit_vertex_cut
from ..scada.network import ScadaNetwork
from .diagnostics import Diagnostic, LintReport, Severity

__all__ = ["lint_case"]


def lint_case(network: ScadaNetwork,
              problem: Optional[ObservabilityProblem] = None,
              spec: Optional[ResiliencySpec] = None) -> LintReport:
    """Run every applicable configuration rule.

    Spec-dependent rules (SCADA013/SCADA014, and SCADA009's severity
    upgrade) only fire when *spec* is given.
    """
    report = LintReport(subject=network.name)
    _check_structure(network, report)
    _check_security_tables(network, report)
    delivering = _check_delivery(network, report, spec)
    if problem is not None:
        _check_coverage(network, problem, report)
        if spec is not None:
            _check_redundancy(network, problem, spec, report, delivering)
            _check_security_indices(network, problem, spec, report)
    return report


# ----------------------------------------------------------------------
# Structural rules: SCADA001-006, SCADA017, SCADA018
# ----------------------------------------------------------------------

def _check_structure(network: ScadaNetwork, report: LintReport) -> None:
    for device in network.duplicate_devices:
        report.append(Diagnostic(
            "SCADA004", Severity.ERROR,
            f"device {device.device_id} ({device.dtype.value}) is defined "
            f"again and shadowed by the first definition",
            location=f"device {device.device_id}",
            hint="remove the duplicate definition or renumber the device"))

    if not network.has_mtu:
        report.append(Diagnostic(
            "SCADA005", Severity.ERROR,
            "the device inventory has no MTU, so no measurement can be "
            "delivered",
            hint="declare exactly one 'mtu = <id>' device"))

    topology = network.topology
    for link in topology.dangling_links:
        unknown = [end for end in (link.a, link.b)
                   if end not in network.devices]
        report.append(Diagnostic(
            "SCADA017", Severity.ERROR,
            f"link {link.index} ({link.a}, {link.b}) references unknown "
            f"device{'s' if len(unknown) > 1 else ''} "
            f"{', '.join(map(str, unknown))}",
            location=f"link {link.index}",
            hint="declare the device or remove the link"))
    for link in topology.parallel_links:
        report.append(Diagnostic(
            "SCADA018", Severity.WARNING,
            f"link {link.index} duplicates the ({link.node_pair[0]}, "
            f"{link.node_pair[1]}) connection; the model treats links as "
            f"a simple graph, so the extra link is ignored",
            location=f"link {link.index}"))
    for link in topology.duplicate_link_indices:
        report.append(Diagnostic(
            "SCADA018", Severity.WARNING,
            f"link index {link.index} is reused; the later definition "
            f"({link.a}, {link.b}) is ignored",
            location=f"link {link.index}"))

    seen_measurements: Dict[int, int] = {}
    for ied_id in sorted(network.measurement_map):
        msrs = network.measurement_map[ied_id]
        device = network.devices.get(ied_id)
        if device is None:
            report.append(Diagnostic(
                "SCADA001", Severity.ERROR,
                f"measurements {sorted(msrs)} are mapped to device "
                f"{ied_id}, which does not exist",
                location=f"device {ied_id}",
                hint="declare the IED or fix the measurement map"))
            continue
        if not device.is_ied:
            report.append(Diagnostic(
                "SCADA002", Severity.ERROR,
                f"device {ied_id} is a {device.dtype.value} but carries "
                f"measurements {sorted(msrs)}; only IEDs take measurements",
                location=f"device {ied_id}"))
            continue
        for z in msrs:
            if z in seen_measurements:
                report.append(Diagnostic(
                    "SCADA003", Severity.ERROR,
                    f"measurement {z} is assigned to IED {ied_id} but "
                    f"already belongs to IED {seen_measurements[z]}",
                    location=f"measurement {z}",
                    hint="a measurement has exactly one source IED"))
            else:
                seen_measurements[z] = ied_id


def _check_security_tables(network: ScadaNetwork,
                           report: LintReport) -> None:
    for (a, b), profiles in sorted(network.pair_security.items()):
        unknown = [end for end in (a, b) if end not in network.devices]
        if unknown:
            report.append(Diagnostic(
                "SCADA006", Severity.ERROR,
                f"security profile for pair ({a}, {b}) references unknown "
                f"device{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(map(str, unknown))}",
                location=f"pair ({a}, {b})"))
        broken = sorted({p.algorithm for p in profiles
                         if p.algorithm in network.policy.broken})
        if broken:
            report.append(Diagnostic(
                "SCADA015", Severity.WARNING,
                f"pair ({a}, {b}) is configured with broken "
                f"algorithm{'s' if len(broken) > 1 else ''} "
                f"{', '.join(broken)}; these never count toward "
                f"authentication or integrity",
                location=f"pair ({a}, {b})",
                hint="replace with a profile from the policy tables"))


# ----------------------------------------------------------------------
# Delivery rules: SCADA007, SCADA008, SCADA009
# ----------------------------------------------------------------------

def _check_delivery(network: ScadaNetwork, report: LintReport,
                    spec: Optional[ResiliencySpec]) -> Set[int]:
    """Check every field device's path to the MTU.

    Returns the set of IEDs with at least one assured path — the
    sources the redundancy rule may count.
    """
    delivering: Set[int] = set()
    if not network.has_mtu:
        return delivering
    mtu = network.mtu_id
    secured_matters = spec is not None and spec.property.uses_security
    for device_id in network.field_device_ids:
        if not network.topology.reachable(device_id, mtu):
            report.append(Diagnostic(
                "SCADA007", Severity.ERROR,
                f"{network.label(device_id)} has no topological route to "
                f"the MTU; its data can never be delivered",
                location=f"device {device_id}",
                hint="add a link toward the RTU hierarchy"))
            continue
        if device_id not in network.ied_ids:
            continue
        try:
            assured = network.assured_paths(device_id)
            secured = network.secured_paths(device_id)
        except RuntimeError:
            # Path enumeration blew the max_paths cap; delivery exists.
            delivering.add(device_id)
            continue
        if not assured:
            report.append(Diagnostic(
                "SCADA008", Severity.ERROR,
                f"{network.label(device_id)} is connected but protocol or "
                f"crypto pairing fails on every forwarding path, so "
                f"assured delivery is impossible",
                location=f"device {device_id}",
                hint="give each hop a shared protocol and a shared "
                     "crypto profile"))
            continue
        delivering.add(device_id)
        if not secured and network.measurements_of(device_id):
            report.append(Diagnostic(
                "SCADA009",
                Severity.ERROR if secured_matters else Severity.WARNING,
                f"{network.label(device_id)} has assured but no secured "
                f"path: no route is both authenticated and integrity "
                f"protected on every hop, so its measurements never count "
                f"toward secured observability",
                location=f"device {device_id}",
                hint="upgrade the hop profiles per the crypto policy "
                     "tables"))
    return delivering


# ----------------------------------------------------------------------
# Coverage rules: SCADA010, SCADA011, SCADA012, SCADA016
# ----------------------------------------------------------------------

def _check_coverage(network: ScadaNetwork, problem: ObservabilityProblem,
                    report: LintReport) -> None:
    mapped = set(network.assigned_measurements())
    known = set(problem.state_sets)
    # Only measurements on real IEDs can ever be delivered; a map entry
    # pointing at a missing device already draws SCADA001.
    valid_mapped = set()
    for ied_id, msrs in network.measurement_map.items():
        device = network.devices.get(ied_id)
        if device is not None and device.is_ied:
            valid_mapped.update(msrs)

    for z in sorted(mapped - known):
        report.append(Diagnostic(
            "SCADA011", Severity.WARNING,
            f"measurement {z} is mapped to IED "
            f"{network.ied_of_measurement(z)} but the observability "
            f"problem does not define it; its deliveries are ignored",
            location=f"measurement {z}"))
    for z in sorted(known - mapped):
        report.append(Diagnostic(
            "SCADA012", Severity.WARNING,
            f"measurement {z} exists in the observability problem but no "
            f"IED takes it; it can never be delivered",
            location=f"measurement {z}",
            hint="map it to an IED or drop it from the Jacobian"))

    usable = valid_mapped & known if mapped else known
    for state in problem.states():
        covering = [z for z in problem.measurements_covering(state)
                    if z in usable]
        if not covering:
            report.append(Diagnostic(
                "SCADA010", Severity.ERROR,
                f"state {state} is covered by no mapped measurement; the "
                f"system is unobservable before any device fails",
                location=f"state {state}",
                hint="add a measurement whose Jacobian row touches the "
                     "state"))

    if problem.num_components < problem.num_states:
        report.append(Diagnostic(
            "SCADA016", Severity.ERROR,
            f"only {problem.num_components} unique measurement groups "
            f"exist for {problem.num_states} states; observability needs "
            f"at least one unique measurement per state",
            hint="add measurements of distinct electrical components"))


# ----------------------------------------------------------------------
# Redundancy rules: SCADA013, SCADA014
# ----------------------------------------------------------------------

def _check_redundancy(network: ScadaNetwork,
                      problem: ObservabilityProblem,
                      spec: ResiliencySpec,
                      report: LintReport,
                      delivering: Set[int]) -> None:
    if not network.has_mtu:
        return
    budget = spec.budget
    use_secured = spec.property.uses_security
    field = set(network.field_device_ids)
    ied_set = set(network.ied_ids)
    mapped = set(network.assigned_measurements())

    # Per-state covering IEDs (only delivering ones can contribute).
    for state in problem.states():
        covering_ieds = sorted({
            network.ied_of_measurement(z)
            for z in problem.measurements_covering(state) if z in mapped})
        sources = [i for i in covering_ieds if i in delivering]
        if not sources:
            continue  # SCADA010/008 already explain the situation.

        if spec.property is Property.BAD_DATA_DETECTABILITY:
            try:
                secured_covering = [
                    z for z in problem.measurements_covering(state)
                    if z in mapped
                    and network.secured_paths(network.ied_of_measurement(z))]
            except RuntimeError:
                continue  # path enumeration blew the cap; stay silent
            if len(secured_covering) < spec.r + 1:
                report.append(Diagnostic(
                    "SCADA014", Severity.ERROR,
                    f"state {state} is covered by only "
                    f"{len(secured_covering)} securely deliverable "
                    f"measurements, below the r+1 = {spec.r + 1} that "
                    f"bad-data detectability requires before any failure",
                    location=f"state {state}"))
                continue

        paths: List[List[int]] = []
        try:
            for ied in sources:
                paths.extend(network.secured_paths(ied) if use_secured
                             else network.assured_paths(ied))
        except RuntimeError:
            continue  # path enumeration blew the cap; stay silent
        if not paths:
            continue
        # Menger: the max number of device-disjoint delivery routes
        # equals the size of the smallest field-device set whose failure
        # silences the state; the flow search stops past the budget.
        result = unit_vertex_cut(sources, paths, field, network.mtu_id,
                                 bound=budget.max_failures)
        if result.flow > budget.max_failures:
            continue
        cut = result.cut_vertices
        cut_text = ", ".join(network.label(d) for d in cut)
        if not budget.is_split:
            report.append(Diagnostic(
                "SCADA013", Severity.ERROR,
                f"state {state} has only {result.flow} device-disjoint "
                f"delivery routes; failing {{{cut_text}}} "
                f"({len(cut)} ≤ k = {budget.k} devices) silences it",
                location=f"state {state}",
                hint="add redundant IEDs, dual-homed links, or RTU "
                     "cross-links"))
        else:
            cut_ieds = sum(1 for d in cut if d in ied_set)
            cut_rtus = len(cut) - cut_ieds
            assert budget.k1 is not None and budget.k2 is not None
            within = cut_ieds <= budget.k1 and cut_rtus <= budget.k2
            report.append(Diagnostic(
                "SCADA013",
                Severity.ERROR if within else Severity.WARNING,
                f"state {state} has only {result.flow} device-disjoint "
                f"delivery routes against budget (k1, k2) = "
                f"({budget.k1}, {budget.k2}); a minimum cut is "
                f"{{{cut_text}}} ({cut_ieds} IEDs, {cut_rtus} RTUs)"
                + ("" if within else
                   ", which does not itself respect the split budget"),
                location=f"state {state}",
                hint="add redundant IEDs, dual-homed links, or RTU "
                     "cross-links"))


# ----------------------------------------------------------------------
# Security-index rules: SCADA019, SCADA020
# ----------------------------------------------------------------------

def _check_security_indices(network: ScadaNetwork,
                            problem: ObservabilityProblem,
                            spec: ResiliencySpec,
                            report: LintReport) -> None:
    """Warn on unique measurement groups whose component-level security
    index (min failures silencing every redundant measurement of the
    component — see :mod:`repro.graphs.security_index`) is within the
    spec's failure budget: a budget-compliant attack erases the whole
    component from the unique-measurement tally."""
    if not network.has_mtu:
        return
    # Imported lazily: repro.graphs pulls in the engine package, which
    # imports this package's public API during its own lint gate.
    from ..graphs.security_index import StructuralAnalysis

    budget = spec.budget.max_failures
    try:
        analysis = StructuralAnalysis(network, problem)
        modes = [(False, "SCADA019")]
        if spec.property.uses_security:
            modes.append((True, "SCADA020"))
        for secured, code in modes:
            for group in problem.unique_groups:
                result = analysis.group_cut(group, secured=secured)
                if result.size == 0 or not result.cuttable \
                        or result.size > budget:
                    continue
                members = ",".join(map(str, group))
                cut_text = ", ".join(network.label(d)
                                     for d in result.devices)
                mode = "secured" if secured else "assured"
                report.append(Diagnostic(
                    code, Severity.WARNING,
                    f"unique measurement group {{{members}}} has "
                    f"{mode} security index {result.size}: failing "
                    f"{{{cut_text}}} silences every redundant "
                    f"measurement of the component within the failure "
                    f"budget ({result.size} <= {budget})",
                    location=f"group {group[0]}",
                    hint="add a redundant IED for the component on a "
                         "device-disjoint route"))
    except RuntimeError:
        return  # path enumeration blew the cap; stay silent
