import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphhom.cube as cube
from graphhom.cube import (
    MAX_CHAIN_RANK,
    build_complex,
    graded_euler,
    per_edge_map,
    phi_psi,
    projection_map,
)
from graphhom.invariants import g_polynomials
from graphhom.laurent import BivariateLaurent
from graphhom.matrices import IntMatrix
from graphhom.multigraph import (
    Multigraph,
    StateSubset,
    all_states,
    bigon,
    bouquet_graph,
    build,
    state_stats,
    tree_graph,
    triangle,
)

P = BivariateLaurent


@st.composite
def random_graphs(draw, max_vertices=4, max_edges=6):
    v = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    edges = tuple(
        (draw(st.integers(0, v - 1)), draw(st.integers(0, v - 1))) for _ in range(m)
    )
    return Multigraph(v, edges)


def test_chain_module_sizes():
    yamada = build_complex(bigon(), "yamada")
    assert yamada.state_sizes[2][0b11] == 16
    assert yamada.state_sizes[0][0b00] == 4
    assert build_complex(bigon(), "tutte").state_sizes[1][0b01] == 2


def test_chain_module_order_is_little_endian():
    # C^{e1} of the bigon: bit 0 is the edge slot, bit 1 the component slot
    maps = phi_psi(bigon())
    cx = maps.yamada
    off = cx.state_offsets[1][0b01]
    assert cx.bidegrees[1][off : off + 4] == [(0, 0), (1, 0), (1, 0), (2, 0)]
    # psi kills the generator in the edge slot and keeps the one in the component slot
    kept = {c for _, c, _ in maps.psi[1].sorted_entries()}
    assert off + 1 not in kept and off + 2 in kept


def test_per_edge_map_merge_case():
    P2 = bigon()
    pm = per_edge_map(P2, StateSubset.empty(2), 0, "yamada")
    # t (x) t dies; 1 (x) 1 lands on the unit edge factor times the unit component
    assert pm == IntMatrix(4, 4, {(0, 0): 1, (2, 1): 1, (2, 2): 1})


def test_per_edge_map_cycle_case():
    P2 = bigon()
    pm = per_edge_map(P2, StateSubset.from_edges(2, [1]), 0, "yamada")
    # t on edge slot e2 goes to 1_A (x) t (x) 1_A (x) 1_B
    assert pm.entry(2, 1) == 1
    assert pm == IntMatrix(16, 4, {(0, 0): 1, (2, 1): 1, (4, 2): 1, (6, 3): 1})


def test_per_edge_map_merge_with_bystander_component():
    # three isolated vertices; the added edge merges the second and third
    G = build(3, [(1, 2)])
    pm = per_edge_map(G, StateSubset.empty(1), 0, "yamada")
    assert pm == IntMatrix(
        8, 8, {(0, 0): 1, (2, 1): 1, (4, 2): 1, (4, 4): 1, (6, 3): 1, (6, 5): 1}
    )


def test_per_edge_map_tutte_variant_drops_edge_factors():
    P2 = bigon()
    pm = per_edge_map(P2, StateSubset.empty(2), 0, "tutte")
    assert pm == IntMatrix(2, 4, {(0, 0): 1, (1, 1): 1, (1, 2): 1})


def test_per_edge_map_rejects_member_edge():
    with pytest.raises(ValueError):
        per_edge_map(bigon(), StateSubset.from_edges(2, [0]), 0, "yamada")


def test_build_complex_bigon_ranks_and_differentials():
    cx = build_complex(bigon(), "yamada")
    assert [cx.rank(i) for i in range(cx.height_count)] == [4, 8, 16]
    assert cx.differentials[0] == IntMatrix(
        8, 4, {(0, 0): 1, (2, 1): 1, (2, 2): 1, (4, 0): 1, (6, 1): 1, (6, 2): 1}
    )
    assert cx.differentials[1] == IntMatrix(
        16,
        8,
        {
            (0, 0): -1,
            (1, 1): -1,
            (4, 2): -1,
            (5, 3): -1,
            (0, 4): 1,
            (2, 5): 1,
            (4, 6): 1,
            (6, 7): 1,
        },
    )


def test_build_complex_tutte_ranks():
    cx = build_complex(bigon(), "tutte")
    assert [cx.rank(i) for i in range(cx.height_count)] == [4, 4, 4]


def test_build_complex_single_vertex():
    cx = build_complex(build(1, []), "yamada")
    assert cx.height_count == 1
    assert cx.rank(0) == 2
    assert cx.differentials == []


def test_build_complex_edge_limit():
    G = bouquet_graph(5)
    with pytest.raises(ValueError):
        build_complex(G, "yamada", max_edges=4)
    with pytest.raises(ValueError):
        build_complex(G, "euler")


def test_bidegree_dims_bigon():
    cx = build_complex(bigon(), "yamada")
    assert cx.dims_at(0) == {(0, 0): 1, (1, 0): 2, (2, 0): 1}
    assert cx.dims_at(1) == {(0, 0): 2, (1, 0): 4, (2, 0): 2}
    assert cx.dims_at(2) == {
        (0, 0): 1,
        (1, 0): 3,
        (2, 0): 3,
        (3, 0): 1,
        (0, 1): 1,
        (1, 1): 3,
        (2, 1): 3,
        (3, 1): 1,
    }


def test_qdim_matches_state_formula():
    one_plus_t = P({(0, 0): 1, (1, 0): 1})
    one_plus_w = P({(0, 0): 1, (0, 1): 1})
    for G in (bigon(), triangle(), bouquet_graph(2)):
        for variant in ("yamada", "tutte"):
            cx = build_complex(G, variant)
            for i in range(cx.height_count):
                expected = P()
                for S in all_states(G):
                    if S.size() != i:
                        continue
                    st = state_stats(G, S)
                    lam = S.size() if variant == "yamada" else 0
                    expected = expected + one_plus_t ** (lam + st.b0) * one_plus_w ** st.b1
                assert cx.qdim(i) == expected


def test_graded_euler_examples():
    assert graded_euler(build_complex(bigon(), "yamada")) == P(
        {(1, 0): 1, (2, 0): 2, (3, 0): 1, (0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1}
    )
    assert graded_euler(build_complex(build(0, []), "yamada")) == P({(0, 0): 1})
    assert graded_euler(build_complex(build(1, []), "yamada")) == P({(0, 0): 1, (1, 0): 1})


def test_graded_euler_equals_g_on_samples():
    for G in (bigon(), triangle(), tree_graph(2), bouquet_graph(3)):
        assert graded_euler(build_complex(G, "yamada")) == g_polynomials(G)[1]


@settings(max_examples=25, deadline=None)
@given(random_graphs(max_vertices=4, max_edges=5))
def test_random_complexes_build_and_match_euler(G):
    # build_complex itself verifies d^2 = 0 and bidegree preservation
    build_complex(G, "tutte")
    cx = build_complex(G, "yamada")
    assert graded_euler(cx) == g_polynomials(G)[1]


def test_six_edge_cycle_builds_and_matches_euler():
    from graphhom.multigraph import cycle_graph

    G = cycle_graph(6)
    cx = build_complex(G, "yamada")
    assert graded_euler(cx) == g_polynomials(G)[1]


def test_unsigned_squares_commute():
    graphs = [
        bigon(),
        triangle(),
        bouquet_graph(2),
        build(3, [(0, 1), (1, 2), (0, 0), (1, 2)]),
    ]
    for G in graphs:
        for variant in ("yamada", "tutte"):
            for S in all_states(G):
                free = [e for e in range(G.edge_count) if not S.contains(e)]
                for a in free:
                    for b in free:
                        if a >= b:
                            continue
                        ab = per_edge_map(G, S.add(a), b, variant) @ per_edge_map(G, S, a, variant)
                        ba = per_edge_map(G, S.add(b), a, variant) @ per_edge_map(G, S, b, variant)
                        assert ab == ba, (G, S.mask, a, b, variant)


def test_projection_map_bigon():
    P2 = bigon()
    pm = projection_map(P2, [0], "yamada")
    assert pm.matrices[0] == IntMatrix.identity(4)
    assert pm.matrices[1] == IntMatrix(4, 8, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1})
    assert pm.matrices[2] == IntMatrix.zeros(0, 16)


def test_projection_map_empty_and_full_gamma():
    P2 = bigon()
    pm_empty = projection_map(P2, [], "yamada")
    assert pm_empty.matrices[0] == IntMatrix.identity(4)
    assert pm_empty.matrices[1].is_zero() and pm_empty.matrices[1].rows == 0
    pm_full = projection_map(P2, [0, 1], "yamada")
    for i, mat in enumerate(pm_full.matrices):
        assert mat == IntMatrix.identity(pm_full.source.rank(i))


def test_projection_map_is_chain_map():
    for G in (bigon(), triangle()):
        for gamma in ([], [0], [0, 1]):
            for variant in ("yamada", "tutte"):
                pm = projection_map(G, gamma, variant)
                for i in range(pm.source.height_count - 1):
                    lhs = pm.matrices[i + 1] @ pm.source.differential(i)
                    rhs = pm.target.differential(i) @ pm.matrices[i]
                    assert lhs == rhs


def test_projection_map_rejects_bad_gamma():
    with pytest.raises(ValueError):
        projection_map(bigon(), [5])


def test_phi_psi_bigon():
    maps = phi_psi(bigon())
    # height 0 carries no edge factors, so both maps are the identity
    assert maps.phi[0] == IntMatrix.identity(4)
    assert maps.psi[0] == IntMatrix.identity(4)
    # phi embeds each tutte basis vector with unit edge factors
    assert maps.phi[1] == IntMatrix(8, 4, {(0, 0): 1, (2, 1): 1, (4, 2): 1, (6, 3): 1})
    # psi kills every vector with a generator in an edge slot
    assert maps.psi[1] == IntMatrix(4, 8, {(0, 0): 1, (1, 2): 1, (2, 4): 1, (3, 6): 1})
    for i in range(3):
        assert maps.psi[i] @ maps.phi[i] == IntMatrix.identity(maps.tutte.rank(i))


def test_phi_psi_chain_maps_on_samples():
    for G in (bigon(), triangle(), tree_graph(2), build(1, [])):
        maps = phi_psi(G)
        for i in range(maps.yamada.height_count - 1):
            assert maps.phi[i + 1] @ maps.tutte.differential(i) == maps.yamada.differential(
                i
            ) @ maps.phi[i]
            assert maps.psi[i + 1] @ maps.yamada.differential(i) == maps.tutte.differential(
                i
            ) @ maps.psi[i]


def test_basis_vector_bidegree_counts_generators():
    # the top element of C^{e1,e2} sets both edge bits, the component bit and the cycle bit
    cx = build_complex(bigon(), "yamada")
    assert cx.state_offsets[2][0b11] + 0b1111 == cx.rank(2) - 1
    assert cx.bidegrees[2][0b1111] == (3, 1)


def test_build_complex_computes_state_stats_once_per_state(monkeypatch):
    calls = []

    def counting(G, S):
        calls.append(S.mask)
        return state_stats(G, S)

    monkeypatch.setattr(cube, "state_stats", counting)
    for G in (bigon(), triangle(), build(5, [(0, 1), (1, 2), (2, 0), (2, 2), (1, 2)])):
        for variant in ("yamada", "tutte"):
            calls.clear()
            build_complex(G, variant)
            assert sorted(calls) == list(range(1 << G.edge_count))


def test_build_complex_refuses_oversized_chain_rank(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an oversized complex must not reach the per-edge maps")

    monkeypatch.setattr(cube, "_edge_rule", never)
    with pytest.raises(ValueError, match=str(2**64)):
        build_complex(build(64, []), "yamada")
    with pytest.raises(ValueError, match=str(2 * 5**12)):
        build_complex(bouquet_graph(12), "yamada")
    with pytest.raises(ValueError, match="at least 2\\^21"):
        build_complex(bouquet_graph(21), "tutte", max_edges=21)
    assert 2 * 5**12 > MAX_CHAIN_RANK
