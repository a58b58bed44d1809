"""The shared max-flow / min-cut kernel: edge cases and brute force."""

import itertools
import random

import pytest

from repro.graphs.flow import INF, FlowNetwork, unit_vertex_cut


# ----------------------------------------------------------------------
# FlowNetwork edge cases
# ----------------------------------------------------------------------

def test_parallel_arcs_merge_additively():
    net = FlowNetwork()
    net.add_arc(1, 2, 2)
    net.add_arc(1, 2, 3)
    assert net.capacity(1, 2) == 5
    assert net.max_flow(1, 2).flow == 5


def test_zero_capacity_arc_registers_nodes_but_carries_nothing():
    net = FlowNetwork()
    net.add_arc(1, 2, 0)
    assert net.has_node(1) and net.has_node(2)
    result = net.max_flow(1, 2)
    assert result.flow == 0
    # The min cut is empty: no positive-capacity arc crosses it.
    assert net.min_cut_arcs(result) == []


def test_disconnected_source_and_sink():
    net = FlowNetwork()
    net.add_arc(1, 2, 4)
    net.add_arc(3, 4, 4)
    result = net.max_flow(1, 4)
    assert result.flow == 0
    assert 1 in result.source_side and 4 not in result.source_side


def test_missing_endpoints_yield_zero_flow():
    net = FlowNetwork()
    net.add_arc(1, 2, 1)
    assert net.max_flow(1, 99).flow == 0
    assert net.max_flow(99, 2).flow == 0


def test_source_equals_sink_raises():
    net = FlowNetwork()
    net.add_arc(1, 2, 1)
    with pytest.raises(ValueError):
        net.max_flow(1, 1)


def test_negative_capacity_raises():
    net = FlowNetwork()
    with pytest.raises(ValueError):
        net.add_arc(1, 2, -1)


def test_bound_early_exit_carries_no_cut():
    net = FlowNetwork()
    for middle in (2, 3, 4):
        net.add_arc(1, middle, 1)
        net.add_arc(middle, 5, 1)
    result = net.max_flow(1, 5, bound=1)
    assert result.bounded
    assert result.flow == 2  # stopped as soon as the bound was exceeded
    assert result.source_side == frozenset()
    assert net.min_cut_arcs(result) == []


def test_min_cut_arcs_capacities_sum_to_flow():
    # Diamond with a cheap left branch and an expensive right branch.
    net = FlowNetwork()
    net.add_arc(0, 1, 1)
    net.add_arc(1, 3, 5)
    net.add_arc(0, 2, 5)
    net.add_arc(2, 3, 2)
    result = net.max_flow(0, 3)
    assert result.flow == 3
    cut = net.min_cut_arcs(result)
    assert sum(net.capacity(u, w) for u, w in cut) == result.flow


def _brute_min_cut(net: FlowNetwork, source: int, sink: int) -> int:
    """Min s-t cut by enumerating node partitions (max-flow dual)."""
    others = [n for n in net.nodes if n not in (source, sink)]
    best = None
    for bits in itertools.product([False, True], repeat=len(others)):
        side = {source} | {n for n, b in zip(others, bits) if b}
        crossing = sum(net.capacity(u, w)
                       for u in side for w in net.nodes if w not in side)
        if best is None or crossing < best:
            best = crossing
    assert best is not None
    return best


def test_max_flow_equals_brute_force_min_cut_on_random_graphs():
    rng = random.Random(7)
    for _ in range(40):
        net = FlowNetwork()
        num_nodes = rng.randint(2, 6)
        net.add_node(0)
        net.add_node(num_nodes - 1)
        for u in range(num_nodes):
            for w in range(num_nodes):
                if u != w and rng.random() < 0.5:
                    net.add_arc(u, w, rng.randint(0, 3))
        result = net.max_flow(0, num_nodes - 1)
        assert result.flow == _brute_min_cut(net, 0, num_nodes - 1)
        cut = net.min_cut_arcs(result)
        assert sum(net.capacity(u, w) for u, w in cut) == result.flow


# ----------------------------------------------------------------------
# unit_vertex_cut
# ----------------------------------------------------------------------

def test_single_chain_cut_is_one():
    result = unit_vertex_cut([1], [(1, 2, 3)], {1, 2}, 3)
    assert result.flow == 1
    assert len(result.cut_vertices) == 1
    assert set(result.cut_vertices) <= {1, 2}


def test_disjoint_routes_need_two_failures():
    paths = [(1, 2, 5), (1, 3, 5)]
    result = unit_vertex_cut([1], paths, {2, 3}, 5)
    assert result.flow == 2
    assert set(result.cut_vertices) == {2, 3}


def test_shared_forwarder_is_the_cheap_cut():
    # Two sources, both through vertex 4.
    paths = [(1, 4, 9), (2, 4, 9)]
    result = unit_vertex_cut([1, 2], paths, {1, 2, 4}, 9)
    assert result.flow == 1
    assert result.cut_vertices == (4,)


def test_protect_removes_a_vertex_from_the_failure_model():
    paths = [(1, 4, 9)]
    unprotected = unit_vertex_cut([1], paths, {1, 4}, 9)
    assert unprotected.flow == 1
    protected = unit_vertex_cut([1], paths, {1, 4}, 9, protect=[1, 4])
    assert protected.flow >= INF  # no unit vertex left on the route


def test_two_sources_on_disjoint_routes():
    # Two IEDs, each with its own RTU to the MTU (5).
    result = unit_vertex_cut([1, 2], [(1, 3, 5), (2, 4, 5)],
                             {1, 2, 3, 4}, 5)
    assert result.flow == 2
    assert len(result.cut_vertices) == 2


def test_dual_homed_source_still_costs_its_own_unit():
    # One IED with two RTU routes: the IED itself is the only min cut.
    result = unit_vertex_cut([1], [(1, 2, 5), (1, 3, 5)], {1, 2, 3}, 5)
    assert result.flow == 1
    assert result.cut_vertices == (1,)


def test_non_unit_forwarder_is_uncuttable():
    # Vertex 4 (a router) is not a unit vertex: infinite capacity.
    result = unit_vertex_cut([1, 2], [(1, 4, 5), (2, 4, 5)], {1, 2}, 5)
    assert result.flow == 2


def test_source_counts_toward_its_own_cut():
    result = unit_vertex_cut([1], [(1, 9)], {1}, 9)
    assert result.flow == 1
    assert result.cut_vertices == (1,)


def test_empty_sources_or_paths():
    assert unit_vertex_cut([], [(1, 2)], {1}, 2).flow == 0
    assert unit_vertex_cut([1], [], {1}, 2).flow == 0


def test_sink_absent_from_every_path():
    result = unit_vertex_cut([1], [(1, 2)], {1}, 99)
    assert result.flow == 0 and result.cut_vertices == ()


def test_negative_vertex_id_raises():
    with pytest.raises(ValueError):
        unit_vertex_cut([-2], [(-2, 3)], {3}, 3)


def test_bound_early_exit_vertex_cut():
    paths = [(1, 2, 9), (1, 3, 9), (1, 4, 9)]
    result = unit_vertex_cut([1], paths, {2, 3, 4}, 9, bound=1)
    assert result.bounded
    assert result.cut_vertices == ()


def _brute_vertex_cut(sources, paths, units, sink):
    """Smallest unit-vertex set disconnecting the union graph, or None."""
    adjacency = {}
    for path in paths:
        for a, b in zip(path, path[1:]):
            adjacency.setdefault(a, set()).add(b)

    def reaches(failed):
        frontier = [s for s in sources if s not in failed]
        seen = set(frontier)
        while frontier:
            node = frontier.pop()
            if node == sink:
                return True
            for nxt in adjacency.get(node, ()):
                if nxt not in failed and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return False

    used = sorted(units)
    for size in range(len(used) + 1):
        for failed in itertools.combinations(used, size):
            if not reaches(set(failed)):
                return size
    return None


def test_vertex_cut_matches_brute_force_on_random_path_families():
    rng = random.Random(21)
    for _ in range(60):
        forwarders = list(range(10, 10 + rng.randint(1, 4)))
        sources = list(range(1, 1 + rng.randint(1, 3)))
        sink = 99
        paths = []
        for source in sources:
            for _ in range(rng.randint(1, 3)):
                middle = rng.sample(forwarders,
                                    rng.randint(0, len(forwarders)))
                paths.append(tuple([source] + middle + [sink]))
        units = set(sources) | set(forwarders)
        result = unit_vertex_cut(sources, paths, units, sink)
        expected = _brute_vertex_cut(sources, paths, units, sink)
        if expected is None:
            assert result.flow >= INF
        else:
            assert result.flow == expected
            assert len(result.cut_vertices) == expected
            # The reported cut really disconnects the union graph.
            assert _brute_vertex_cut(
                sources, paths, set(result.cut_vertices), sink) == len(
                    result.cut_vertices)
