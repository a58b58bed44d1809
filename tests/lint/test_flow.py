"""Device-disjoint delivery flow (the SCADA013 engine).

The rule calls :func:`repro.graphs.flow.unit_vertex_cut` with the IEDs
covering a state as sources, their assured paths, the field devices as
unit vertices, the MTU as sink and the failure budget as bound; a state
survives the budget when the flow exceeds it.
"""

from repro.graphs.flow import unit_vertex_cut


def test_single_chain_has_flow_one():
    result = unit_vertex_cut([1], [[1, 2, 3]], {1, 2}, 3)
    assert result.flow == 1
    assert not result.flow > 1
    # The minimum cut is a single device on the chain.
    assert len(result.cut_vertices) == 1
    assert set(result.cut_vertices) <= {1, 2}


def test_shared_rtu_is_the_bottleneck():
    # Both IEDs route through RTU 3: one failure (RTU 3) cuts delivery.
    result = unit_vertex_cut([1, 2], [[1, 3, 5], [2, 3, 5]],
                             {1, 2, 3}, 5)
    assert result.flow == 1
    assert result.cut_vertices == (3,)


def test_bound_early_exit_skips_cut():
    result = unit_vertex_cut([1, 2], [[1, 3, 5], [2, 4, 5]],
                             {1, 2, 3, 4}, 5, bound=0)
    assert result.flow > 0
    assert result.cut_vertices == ()


def test_no_sources_or_paths():
    empty = unit_vertex_cut([], [], set(), 1)
    assert empty.flow == 0 and empty.cut_vertices == ()
    no_paths = unit_vertex_cut([1], [], {1}, 2)
    assert no_paths.flow == 0
