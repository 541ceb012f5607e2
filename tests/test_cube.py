import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphhom.cube as cube
from graphhom.cube import (
    MAX_CHAIN_RANK,
    build_complex,
    graded_euler,
    phi_psi,
    projection_map,
)
from graphhom.invariants import g_polynomials
from graphhom.laurent import BivariateLaurent
from graphhom.matrices import IntMatrix
from graphhom.multigraph import (
    Multigraph,
    bigon,
    bouquet_graph,
    build,
    cycle_graph,
    state_components,
    tree_graph,
    triangle,
)

P = BivariateLaurent
K4 = Multigraph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))


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


def _edge_map(G, mask, e, variant):
    """(source, target) pairs of the unsigned map C^S -> C^(S+e) for
    S = mask, with the ranks of C^S and C^(S+e)."""
    sizes = build_complex(G, variant).state_sizes
    labels = state_components(G)[mask][0]
    u, v = G.edges[e]
    i = mask.bit_count()
    size = sizes[i][mask]
    pairs = cube._edge_rule(mask, e, labels[u], labels[v], size, variant == "yamada")
    return pairs, size, sizes[i + 1][mask | 1 << e]


def test_per_edge_map_merge_case():
    # t (x) t dies; 1 (x) 1 lands on the unit edge factor times the unit component
    assert _edge_map(bigon(), 0b00, 0, "yamada") == ([(0, 0), (1, 2), (2, 2)], 4, 4)


def test_per_edge_map_cycle_case():
    pairs, cols, rows = _edge_map(bigon(), 0b10, 0, "yamada")
    # t on edge slot e2 goes to 1_A (x) t (x) 1_A (x) 1_B
    assert (1, 2) in pairs
    assert (pairs, cols, rows) == ([(0, 0), (1, 2), (2, 4), (3, 6)], 4, 16)


def test_per_edge_map_merge_with_bystander_component():
    # three isolated vertices; the added edge merges the second and third
    G = build(3, [(1, 2)])
    assert _edge_map(G, 0b0, 0, "yamada") == (
        [(0, 0), (1, 2), (2, 4), (3, 6), (4, 4), (5, 6)],
        8,
        8,
    )


def test_per_edge_map_tutte_variant_drops_edge_factors():
    assert _edge_map(bigon(), 0b00, 0, "tutte") == ([(0, 0), (1, 1), (2, 1)], 4, 2)


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
                for mask, (_, b0) in enumerate(state_components(G)):
                    if mask.bit_count() != i:
                        continue
                    b1 = i - G.vertex_count + b0
                    lam = i if variant == "yamada" else 0
                    expected = expected + one_plus_t ** (lam + b0) * one_plus_w ** b1
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
        components = state_components(G)
        for variant in ("yamada", "tutte"):
            sizes = {}
            for level in build_complex(G, variant).state_sizes:
                sizes.update(level)

            def targets(mask, e):
                # target of each source, -1 when it is killed (also at index -1)
                labels = components[mask][0]
                u, v = G.edges[e]
                out = [-1] * (sizes[mask] + 1)
                for x, y in cube._edge_rule(
                    mask, e, labels[u], labels[v], sizes[mask], variant == "yamada"
                ):
                    out[x] = y
                return out

            for mask in range(1 << G.edge_count):
                free = [e for e in range(G.edge_count) if not mask >> e & 1]
                for a in free:
                    for b in free:
                        if a >= b:
                            continue
                        after_a, after_b = targets(mask | 1 << a, b), targets(mask | 1 << b, a)
                        ab = [after_a[y] for y in targets(mask, a)]
                        ba = [after_b[y] for y in targets(mask, b)]
                        assert ab == ba, (G, mask, a, b, variant)


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


def test_build_complex_refuses_oversized_chain_rank(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an oversized complex must not reach the per-edge maps")

    monkeypatch.setattr(cube, "_edge_rule", never)
    with pytest.raises(ValueError, match=str(2**64)):
        build_complex(build(64, []), "yamada")
    with pytest.raises(ValueError, match=str(2 * 5**12)):
        build_complex(bouquet_graph(12), "yamada")
    with pytest.raises(ValueError, match=f"at least {2 * 3**21},"):
        build_complex(bouquet_graph(21), "tutte", max_edges=21)
    assert 2 * 5**12 > MAX_CHAIN_RANK


def test_build_complex_refuses_before_enumerating_states(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an oversized complex must be refused before any state is labelled")

    monkeypatch.setattr(cube, "state_components", never)
    with pytest.raises(ValueError, match=f"at least {2 * 3**16},"):
        build_complex(bouquet_graph(16), "tutte", max_edges=16)
    with pytest.raises(ValueError, match="rank at least"):
        build_complex(cycle_graph(18), "tutte", max_edges=18)


@pytest.mark.parametrize("G", [K4, cycle_graph(6)], ids=["K4", "cycle6"])
def test_differential_view_matches_blocks_and_squares_to_zero(G, complex_of):
    # a global oracle for the face-by-face d^2 check, beyond the corpus
    cx = complex_of(G, "yamada")
    for i in range(cx.height_count - 1):
        d = cx.differential(i)
        rows_of, cols_of = cx.bidegree_index[i + 1], cx.bidegree_index[i]
        for jk in set(rows_of) | set(cols_of):
            assert d.submatrix(rows_of.get(jk, []), cols_of.get(jk, [])) == cx.block(i, jk)
        assert d.nnz() == sum(block.nnz() for block in cx.blocks[i].values())
        assert (cx.differential(i + 1) @ d).is_zero()
