"""The delivery graph: the union of enumerated delivery paths.

The SAT model's delivery semantics are defined over the *enumerated*
path family: ``D_Z`` is the disjunction of "every device of path p is
alive" over the assured (or secured) paths the topology pass produced,
with routers and the MTU pinned alive.  Silencing a set of sources
therefore costs exactly the minimum *transversal* (hitting set) of
their combined path family, counted in field devices.

:class:`DeliveryGraph` views that family as a flow network and answers
silencing-cost queries by min vertex cut (:func:`~repro.graphs.flow.
unit_vertex_cut`).  Two soundness regimes apply, and every
:class:`CutResult` says which one it is in:

* **Witness (always sound).**  A min cut of the path union *is* a
  transversal: failing exactly those devices falsifies every enumerated
  path, hence ``D_Z`` for every covered measurement.  The cut size is
  therefore always a sound **upper bound** on the SAT silencing cost.

* **Exact (certified).**  The cut equals the min transversal — making
  it a sound **lower bound** too — iff every simple source→sink route
  of the union graph is itself an *enumerated* path.  The gap arises
  only from *hybrid* routes: a route stitched out of segments of
  different enumerated paths through shared forwarders, which the flow
  must also cut even though no ``D_Z`` depends on it.
  :attr:`DeliveryGraph.certified` checks the condition directly: a DFS
  enumerates the union graph's simple source→sink routes and verifies
  each is a member of the path family (budgeted — a union graph with
  far more routes than enumerated paths is reported uncertified rather
  than searched exhaustively).  Both sides of the comparison use the
  same enumerated family the SAT encoder reads, so truncation caps
  (``max_paths``, ``max_path_length``) affect both engines identically
  and do not by themselves break exactness.

Uncertified graphs still screen soundly — their cuts prune as upper
bounds (witnesses) only, never as lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..obs.tracer import count as obs_count
from ..scada.network import ScadaNetwork
from .flow import INF, unit_vertex_cut

__all__ = ["CutResult", "DeliveryGraph"]


@dataclass(frozen=True)
class CutResult:
    """One silencing-cost query answer.

    ``size`` is the min-cut value (:data:`~repro.graphs.flow.INF` when
    no failure set of field devices can cut the sources off — e.g. a
    protected source wired straight to the MTU).  ``devices`` is a
    concrete witness cut of that size.  ``certified`` marks the exact
    regime: the size equals the SAT silencing cost, not just an upper
    bound on it.
    """

    size: int
    devices: Tuple[int, ...]
    certified: bool

    @property
    def cuttable(self) -> bool:
        return self.size < INF


class DeliveryGraph:
    """The enumerated assured (or secured) delivery structure.

    Path enumeration runs once per field device at construction; cut
    queries are cached by (source set, protected set).  Construction
    propagates the topology pass's ``RuntimeError`` when the
    ``max_paths`` cap is hit — exactly the configurations where the SAT
    encoder fails too, so the structural pass never out-claims it.
    """

    def __init__(self, network: ScadaNetwork, secured: bool = False) -> None:
        self.network = network
        self.secured = secured
        self._paths: Dict[int, List[Tuple[int, ...]]] = {}
        for device in network.field_device_ids:
            paths = (network.secured_paths(device) if secured
                     else network.assured_paths(device))
            self._paths[device] = [tuple(p) for p in paths]
        self._field: Set[int] = set(network.field_device_ids)
        self._certified: Optional[bool] = None
        self._cut_cache: Dict[
            Tuple[FrozenSet[int], FrozenSet[int]], CutResult] = {}

    # ------------------------------------------------------------------

    def deliverable(self, device: int) -> bool:
        """Whether the device has any enumerated delivery path."""
        return bool(self._paths.get(device))

    @property
    def certified(self) -> bool:
        """Whether cut sizes are exact wrt the SAT model (see module
        docstring); computed once over the full path union."""
        if self._certified is None:
            self._certified = self._check_certificate()
        return self._certified

    def _check_certificate(self) -> bool:
        adjacency: Dict[int, Set[int]] = {}
        family: Set[Tuple[int, ...]] = set()
        for paths in self._paths.values():
            for path in paths:
                family.add(path)
                for a, b in zip(path, path[1:]):
                    adjacency.setdefault(a, set()).add(b)
        sink = self.network.mtu_id
        for source, own in self._paths.items():
            if not own:
                continue
            # A source's sub-union routes are a subset of the full
            # union's, so certifying every source here covers every
            # cut query over any source subset.
            budget = max(64, 4 * len(own))
            if not _routes_enumerated(adjacency, source, sink,
                                      family, budget):
                return False
        return True

    # ------------------------------------------------------------------

    def cut(self, sources: Iterable[int],
            protect: Iterable[int] = ()) -> CutResult:
        """Min field-device failures silencing every *source* at once.

        *protect* devices are excluded from the failure model (infinite
        capacity) — the command-deliverability query protects the
        target device itself, asking for the cheapest attack that
        leaves it alive yet unreachable.  Sources without paths
        contribute nothing (their delivery is already false at zero
        failures); with no deliverable source at all the cost is zero.
        """
        key = (frozenset(sources), frozenset(protect))
        cached = self._cut_cache.get(key)
        if cached is not None:
            return cached
        paths: List[Tuple[int, ...]] = []
        for device in sorted(key[0]):
            paths.extend(self._paths.get(device, []))
        if not paths:
            outcome = CutResult(0, (), True)
            self._cut_cache[key] = outcome
            return outcome
        obs_count("graphs.flow.queries")
        result = unit_vertex_cut(
            sorted(key[0]), paths, self._field, self.network.mtu_id,
            protect=key[1])
        if result.flow >= INF:
            outcome = CutResult(INF, (), self.certified)
        else:
            outcome = CutResult(result.flow, result.cut_vertices,
                                self.certified)
        self._cut_cache[key] = outcome
        return outcome

    def __repr__(self) -> str:
        mode = "secured" if self.secured else "assured"
        total = sum(len(p) for p in self._paths.values())
        return (f"DeliveryGraph({self.network.name!r}, {mode}, "
                f"paths={total})")


def _routes_enumerated(adjacency: Dict[int, Set[int]], source: int,
                       sink: int, family: Set[Tuple[int, ...]],
                       budget: int) -> bool:
    """Whether every simple *source*→*sink* route of the union graph is
    a member of *family*, giving up (``False``) past *budget* routes."""
    count = 0
    path: List[int] = [source]
    on_path: Set[int] = {source}

    def walk(current: int) -> bool:
        nonlocal count
        for nxt in sorted(adjacency.get(current, ())):
            if nxt == sink:
                count += 1
                if count > budget:
                    return False
                if tuple(path) + (sink,) not in family:
                    return False
            elif nxt not in on_path:
                on_path.add(nxt)
                path.append(nxt)
                deeper = walk(nxt)
                path.pop()
                on_path.remove(nxt)
                if not deeper:
                    return False
        return True

    return walk(source)
