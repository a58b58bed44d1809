"""Configuration hardening — the paper's stated future work (§VII).

Given a specification the system fails, find a *minimal* set of
configuration repairs that restores it.  Two repair families are
supported:

* **security upgrades** — replace a communicating pair's crypto profile
  with a strong (authenticated + integrity-protected) one, fixing
  secured-observability failures caused by weak links;
* **link additions** — add a redundant RTU-to-RTU/router link, fixing
  observability failures caused by single points of failure (the Fig. 4
  RTU 12 situation).

The search iterates over repair subsets in increasing size (so the
first success is minimum-cardinality) and verifies each candidate
configuration through a fresh-path
:class:`~repro.engine.VerificationEngine`.  A verification-call
budget keeps the combinatorial search bounded; exceeding it raises.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..sat.limits import Limits
from ..scada.devices import CryptoProfile
from ..scada.network import ScadaNetwork
from ..scada.topology import Link
from .problem import ObservabilityProblem
from .results import Status
from .specs import ResiliencySpec

__all__ = ["Repair", "HardeningResult", "harden"]

#: The profile used for security upgrades (Table II's strongest entry).
STRONG_PROFILE = CryptoProfile.parse_many("rsa 2048 aes 256")


@dataclass(frozen=True)
class Repair:
    """One configuration change."""

    kind: str                 # "upgrade-security" | "add-link"
    pair: Tuple[int, int]

    def describe(self) -> str:
        a, b = self.pair
        if self.kind == "upgrade-security":
            return f"upgrade security profile of pair ({a}, {b})"
        return f"add a redundant link ({a}, {b})"


@dataclass
class HardeningResult:
    """Outcome of a hardening search."""

    spec: ResiliencySpec
    repairs: List[Repair]
    network: Optional[ScadaNetwork]
    verify_calls: int

    @property
    def succeeded(self) -> bool:
        return self.network is not None

    def summary(self) -> str:
        if not self.succeeded:
            return (f"{self.spec.describe()}: no repair set of the "
                    f"explored sizes restores the property")
        if not self.repairs:
            return f"{self.spec.describe()}: already holds, no repairs"
        steps = "; ".join(r.describe() for r in self.repairs)
        return f"{self.spec.describe()}: restored by [{steps}]"


def _apply(network: ScadaNetwork, repairs: Sequence[Repair]) -> ScadaNetwork:
    """Build a new network with *repairs* applied."""
    pair_security = dict(network.pair_security)
    links = list(network.topology.links)
    next_index = max((link.index for link in links), default=0)
    for repair in repairs:
        a, b = repair.pair
        key = (min(a, b), max(a, b))
        if repair.kind == "upgrade-security":
            pair_security[key] = STRONG_PROFILE
        elif repair.kind == "add-link":
            next_index += 1
            links.append(Link(index=next_index, a=a, b=b))
            pair_security.setdefault(key, STRONG_PROFILE)
        else:
            raise ValueError(f"unknown repair kind {repair.kind!r}")
    return ScadaNetwork(
        devices=list(network.devices.values()),
        links=links,
        measurement_map=network.measurement_map,
        pair_security=pair_security,
        policy=network.policy,
        name=network.name + "+hardened",
        max_paths=network.max_paths,
        max_path_length=network.max_path_length,
    )


def _candidate_upgrades(network: ScadaNetwork) -> List[Repair]:
    """Pairs on some delivery path that are not currently secured."""
    routers = network.router_ids
    seen: Dict[Tuple[int, int], None] = {}
    for ied in network.ied_ids:
        for path in network.forwarding_paths(ied):
            hops = [d for d in path if d not in routers]
            for i in range(len(hops) - 1):
                a, b = hops[i], hops[i + 1]
                if not network.hop_secured(a, b):
                    seen.setdefault((min(a, b), max(a, b)), None)
    return [Repair("upgrade-security", pair) for pair in seen]


def _candidate_links(network: ScadaNetwork) -> List[Repair]:
    """Missing RTU-RTU and RTU-router/MTU links."""
    rtus = network.rtu_ids
    hubs = sorted(network.router_ids) or [network.mtu_id]
    existing = {link.node_pair for link in network.topology.links}
    repairs: List[Repair] = []
    for a, b in itertools.combinations(rtus, 2):
        if (a, b) not in existing:
            repairs.append(Repair("add-link", (a, b)))
    for rtu in rtus:
        for hub in hubs:
            pair = (min(rtu, hub), max(rtu, hub))
            if pair not in existing:
                repairs.append(Repair("add-link", pair))
    return repairs


def harden(network: ScadaNetwork, problem: ObservabilityProblem,
           spec: ResiliencySpec,
           allow_upgrades: bool = True,
           allow_links: bool = True,
           max_repairs: int = 2,
           max_verify_calls: int = 500,
           limits: Optional[Limits] = None) -> HardeningResult:
    """Find a minimum-cardinality repair set restoring *spec*.

    Returns a result whose ``network`` is the repaired configuration, or
    ``None`` when no subset of at most *max_repairs* repairs works.
    ``limits`` bounds each candidate's solve — an UNKNOWN verdict is
    *not* RESILIENT, so a budgeted search never certifies a repair it
    could not prove (it may merely miss one it lacked time for).
    """
    from ..engine import VerificationEngine

    calls = 0

    def verify(candidate: ScadaNetwork) -> bool:
        nonlocal calls
        calls += 1
        if calls > max_verify_calls:
            raise RuntimeError(
                f"hardening exceeded {max_verify_calls} verification calls")
        # Candidate networks are lint-checked by the caller's analyzer;
        # re-linting every repair candidate here would be wasted work
        # (and a weakened candidate may legitimately trip delivery rules).
        engine = VerificationEngine(candidate, problem, backend="fresh",
                                    lint=False)
        result = engine.verify(spec, minimize=False, limits=limits)
        return result.status is Status.RESILIENT

    if verify(network):
        return HardeningResult(spec=spec, repairs=[], network=network,
                               verify_calls=calls)

    candidates: List[Repair] = []
    if allow_upgrades:
        candidates.extend(_candidate_upgrades(network))
    if allow_links:
        candidates.extend(_candidate_links(network))

    for size in range(1, max_repairs + 1):
        for combo in itertools.combinations(candidates, size):
            candidate = _apply(network, combo)
            if verify(candidate):
                return HardeningResult(spec=spec, repairs=list(combo),
                                       network=candidate,
                                       verify_calls=calls)
    return HardeningResult(spec=spec, repairs=[], network=None,
                           verify_calls=calls)
