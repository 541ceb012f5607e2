from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhom.multigraph import (
    Multigraph,
    StateSubset,
    all_states,
    bigon,
    bouquet_graph,
    build,
    classify_edge,
    cycle_graph,
    from_json_dict,
    multiedge_graph,
    permute_edges,
    reduce,
    state_histogram,
    state_stats,
    to_json_dict,
    tree_graph,
    triangle,
)


@st.composite
def small_graphs(draw, max_vertices=4, max_edges=5, min_vertices=1):
    v = draw(st.integers(min_vertices, max_vertices))
    m = draw(st.integers(0, max_edges)) if v else 0
    edges = tuple(
        (draw(st.integers(0, v - 1)), draw(st.integers(0, v - 1))) for _ in range(m)
    )
    return Multigraph(v, edges)


def test_build_examples():
    assert bigon() == build(2, [(0, 1), (0, 1)])
    assert build(0, []) == Multigraph(0, ())
    assert bouquet_graph(1) == build(1, [(0, 0)])


def test_build_errors():
    with pytest.raises(ValueError):
        build(2, [(0, 2)])
    with pytest.raises(ValueError):
        build(-1, [])


def test_state_stats_examples():
    P2 = bigon()
    empty = StateSubset.empty(2)
    assert state_stats(P2, empty).b0 == 2
    assert state_stats(P2, empty).b1 == 0
    full = StateSubset.full(2)
    assert (state_stats(P2, full).b0, state_stats(P2, full).b1) == (1, 1)
    L1 = bouquet_graph(1)
    st_loop = state_stats(L1, StateSubset.full(1))
    assert (st_loop.b0, st_loop.b1) == (1, 1)


def test_state_stats_components_order():
    G = build(4, [(2, 3)])
    st_ = state_stats(G, StateSubset.full(1))
    assert st_.components == ((0,), (1,), (2, 3))


def test_state_stats_width_mismatch():
    with pytest.raises(ValueError):
        state_stats(bigon(), StateSubset.empty(3))


def test_state_subset_basics():
    S = StateSubset.from_edges(4, [1, 3])
    assert S.size() == 2
    assert S.edge_indices() == (1, 3)
    assert S.add(0).mask == 0b1011
    with pytest.raises(ValueError):
        StateSubset(8, 3)


def test_classify_edge():
    assert classify_edge(bigon(), 0) == "ordinary"
    assert classify_edge(tree_graph(1), 0) == "isthmus"
    assert classify_edge(bouquet_graph(1), 0) == "loop"
    with pytest.raises(IndexError):
        classify_edge(bigon(), 2)


def test_reduce_examples():
    assert reduce(bigon(), 0, "contract") == bouquet_graph(1)
    assert reduce(bigon(), 1, "delete") == Multigraph(2, ((0, 1),))
    assert reduce(triangle(), 0, "contract") == bigon()
    with pytest.raises(ValueError):
        reduce(bouquet_graph(1), 0, "contract")
    with pytest.raises(ValueError):
        reduce(bigon(), 0, "shrink")


def test_reduce_keeps_isolated_vertices():
    G = build(2, [(0, 1)])
    assert reduce(G, 0, "delete") == Multigraph(2, ())


def test_classify_edge_matches_b0_definition(corpus):
    """The reachability test agrees with comparing b0 of E and E - e."""
    for G in corpus:
        full = StateSubset.full(G.edge_count)
        before = state_stats(G, full).b0
        for e in range(G.edge_count):
            u, v = G.edges[e]
            if u == v:
                expected = "loop"
            elif state_stats(G, full.remove(e)).b0 > before:
                expected = "isthmus"
            else:
                expected = "ordinary"
            assert classify_edge(G, e) == expected


def test_state_histogram_examples():
    assert state_histogram(build(0, [])) == {(0, 0): 1}
    assert state_histogram(build(3, [])) == {(0, 3): 1}
    assert state_histogram(bigon()) == {(0, 2): 1, (1, 1): 2, (2, 1): 1}
    assert state_histogram(bouquet_graph(2)) == {(0, 1): 1, (1, 1): 2, (2, 1): 1}
    # the endpoints sit far apart in the labels; the other vertices only add to b0
    assert state_histogram(build(1000, [(999, 3)])) == {(0, 1000): 1, (1, 999): 1}


@settings(max_examples=150, deadline=None)
@given(small_graphs(min_vertices=0, max_vertices=5, max_edges=8))
def test_state_histogram_matches_state_stats(G):
    expected = Counter((S.size(), state_stats(G, S).b0) for S in all_states(G))
    assert state_histogram(G) == expected


def test_isthmus_deletion_increases_b0():
    for G in (tree_graph(3), build(3, [(0, 1), (1, 2), (1, 2)])):
        full = StateSubset.full(G.edge_count)
        base = state_stats(G, full).b0
        for e in range(G.edge_count):
            if classify_edge(G, e) == "isthmus":
                assert state_stats(G, full.remove(e)).b0 == base + 1


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_euler_relation_on_all_states(G):
    for S in all_states(G):
        st_ = state_stats(G, S)
        assert st_.b1 == S.size() - G.vertex_count + st_.b0
        assert st_.b1 >= 0
        assert sum(len(c) for c in st_.components) == G.vertex_count


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_adding_edge_dichotomy(G):
    """Adding one edge either closes a cycle or merges two components."""
    for S in all_states(G):
        before = state_stats(G, S)
        for e in range(G.edge_count):
            if S.contains(e):
                continue
            after = state_stats(G, S.add(e))
            closes_cycle = after.b0 == before.b0 and after.b1 == before.b1 + 1
            merges = after.b0 == before.b0 - 1 and after.b1 == before.b1
            assert closes_cycle != merges


def test_permute_edges():
    G = triangle()
    H = permute_edges(G, (2, 0, 1))
    assert H.edges == ((0, 2), (0, 1), (1, 2))
    with pytest.raises(ValueError):
        permute_edges(G, (0, 0, 1))


def test_families():
    assert tree_graph(2).edges == ((0, 1), (1, 2))
    assert bouquet_graph(2).edges == ((0, 0), (0, 0))
    assert multiedge_graph(3).edges == ((0, 1), (0, 1), (0, 1))
    assert cycle_graph(1) == bouquet_graph(1)
    assert cycle_graph(2) == bigon()
    assert cycle_graph(4).edges == ((0, 1), (1, 2), (2, 3), (3, 0))


def test_json_round_trip():
    G = triangle()
    data = to_json_dict(G)
    assert data == {"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}
    assert from_json_dict(data) == G


@pytest.mark.parametrize(
    "data",
    [
        [],
        {"vertices": 2},
        {"vertices": "2", "edges": []},
        {"vertices": 2, "edges": [[0]]},
        {"vertices": 2, "edges": [[0, "1"]]},
        {"vertices": 2, "edges": [[0, 5]]},
    ],
)
def test_json_validation_errors(data):
    with pytest.raises(ValueError):
        from_json_dict(data)
