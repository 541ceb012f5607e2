from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhom.multigraph import (
    Multigraph,
    bigon,
    bouquet_graph,
    build,
    classify_edge,
    cycle_graph,
    from_json_dict,
    multiedge_graph,
    permute_edges,
    reduce,
    state_components,
    state_histogram,
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


def _state_stats(G, mask):
    """Reference (b0, b1, components) of the state [G:S] with S = mask, by a
    fresh union-find over its edges; components are sorted vertex tuples
    ordered by minimal vertex."""
    if not 0 <= mask < 1 << G.edge_count:
        raise ValueError(f"mask {mask} does not fit in width {G.edge_count}")
    parent = list(range(G.vertex_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e, (u, v) in enumerate(G.edges):
        if mask >> e & 1:
            parent[find(v)] = find(u)
    groups = {}
    for v in range(G.vertex_count):
        groups.setdefault(find(v), []).append(v)
    components = tuple(sorted(tuple(g) for g in groups.values()))
    b0 = len(components)
    return b0, mask.bit_count() - G.vertex_count + b0, components


def _labels(components, vertex_count):
    """Component index of each vertex, given the ordered components."""
    labels = [0] * vertex_count
    for idx, comp in enumerate(components):
        for v in comp:
            labels[v] = idx
    return labels


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
    assert _state_stats(P2, 0b00)[:2] == (2, 0)
    assert _state_stats(P2, 0b11)[:2] == (1, 1)
    assert [b0 for _, b0 in state_components(P2)] == [2, 1, 1, 1]
    assert _state_stats(bouquet_graph(1), 0b1)[:2] == (1, 1)
    assert state_components(bouquet_graph(1))[0b1] == ([0], 1)


def test_state_stats_components_order():
    G = build(4, [(2, 3)])
    assert _state_stats(G, 0b1)[2] == ((0,), (1,), (2, 3))
    assert state_components(G)[0b1] == ([0, 1, 2, 2], 3)


def test_state_stats_width_mismatch():
    # a mask wider than |E| is no state of the graph
    assert len(state_components(bigon())) == 4
    with pytest.raises(ValueError):
        _state_stats(bigon(), 0b100)


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
        b0 = [b0 for _, b0 in state_components(G)]
        full = (1 << G.edge_count) - 1
        for e in range(G.edge_count):
            u, v = G.edges[e]
            if u == v:
                expected = "loop"
            elif b0[full & ~(1 << e)] > b0[full]:
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
    stats = [_state_stats(G, mask) for mask in range(1 << G.edge_count)]
    expected = Counter((mask.bit_count(), b0) for mask, (b0, _, _) in enumerate(stats))
    assert state_histogram(G) == expected
    assert state_components(G) == [
        (_labels(components, G.vertex_count), b0) for b0, _, components in stats
    ]


def test_isthmus_deletion_increases_b0():
    for G in (tree_graph(3), build(3, [(0, 1), (1, 2), (1, 2)])):
        b0 = [b0 for _, b0 in state_components(G)]
        full = (1 << G.edge_count) - 1
        for e in range(G.edge_count):
            if classify_edge(G, e) == "isthmus":
                assert b0[full & ~(1 << e)] == b0[full] + 1


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_euler_relation_on_all_states(G):
    for mask, (labels, b0) in enumerate(state_components(G)):
        b1 = _state_stats(G, mask)[1]
        assert b1 == mask.bit_count() - G.vertex_count + b0
        assert b1 >= 0
        # every vertex has a component, and the b0 labels all occur
        assert len(labels) == G.vertex_count
        assert sorted(set(labels)) == list(range(b0))


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_adding_edge_dichotomy(G):
    """Adding one edge either closes a cycle or merges two components."""
    stats = [
        (b0, mask.bit_count() - G.vertex_count + b0)
        for mask, (_, b0) in enumerate(state_components(G))
    ]
    for mask, (b0, b1) in enumerate(stats):
        for e in range(G.edge_count):
            if mask >> e & 1:
                continue
            after_b0, after_b1 = stats[mask | 1 << e]
            closes_cycle = after_b0 == b0 and after_b1 == b1 + 1
            merges = after_b0 == b0 - 1 and after_b1 == b1
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
