import gc
import tracemalloc

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

from matrix_route import differential, identity, map_matrix, matmul

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
    cx = build_complex(bigon(), "yamada")
    psi = phi_psi(build_complex(bigon(), "tutte"), cx)[1]
    off = cx.state_offsets[1][0b01]
    bidegree_of = {pos: jk for jk, idx in cx.bidegree_index[1].items() for pos in idx}
    assert [bidegree_of[off + x] for x in range(4)] == [(0, 0), (1, 0), (1, 0), (2, 0)]
    # psi kills the generator in the edge slot and keeps the one in the component slot
    kept = {c for c, t in enumerate(psi[1]) if t >= 0}
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
    assert differential(cx, 0) == IntMatrix(
        8, 4, {(0, 0): 1, (2, 1): 1, (2, 2): 1, (4, 0): 1, (6, 1): 1, (6, 2): 1}
    )
    assert differential(cx, 1) == IntMatrix(
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
    assert cx.blocks == [] and list(cx.nonzeros(0)) == []


def test_build_complex_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant"):
        build_complex(bouquet_graph(5), "euler")


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
    _, maps = projection_map(build_complex(bigon(), "yamada"), [0])
    assert maps[0] == [0, 1, 2, 3]
    # the state {e0} is kept, the state {e1} is killed
    assert maps[1] == [0, 1, 2, 3, -1, -1, -1, -1]
    assert maps[2] == [-1] * 16


def test_projection_map_empty_and_full_gamma():
    source = build_complex(bigon(), "yamada")
    target, empty = projection_map(source, [])
    assert empty[0] == [0, 1, 2, 3]
    assert empty[1] == [-1] * 8 and target.rank(1) == 0
    _, full = projection_map(source, [0, 1])
    for i, targets in enumerate(full):
        assert targets == list(range(source.rank(i)))


def test_projection_map_is_chain_map(complex_of):
    for G in (bigon(), triangle()):
        for gamma in ([], [0], [0, 1]):
            for variant in ("yamada", "tutte"):
                source = complex_of(G, variant)
                target, maps = projection_map(source, gamma)
                assert target.variant == variant
                matrices = [map_matrix(f, target.rank(i)) for i, f in enumerate(maps)]
                for i in range(source.height_count - 1):
                    lhs = matmul(matrices[i + 1], differential(source, i))
                    rhs = matmul(differential(target, i), matrices[i])
                    assert lhs == rhs


def test_projection_map_rejects_bad_gamma(complex_of):
    for gamma in ([5], [-1], [0, 2]):
        with pytest.raises(ValueError, match="gamma is not a subset"):
            projection_map(complex_of(bigon(), "yamada"), gamma)


def test_phi_psi_bigon(complex_of):
    tutte = complex_of(bigon(), "tutte")
    phi, psi = phi_psi(tutte, complex_of(bigon(), "yamada"))
    # height 0 carries no edge factors, so both maps are the identity
    assert phi[0] == [0, 1, 2, 3]
    assert psi[0] == [0, 1, 2, 3]
    # phi embeds each tutte basis vector with unit edge factors
    assert phi[1] == [0, 2, 4, 6]
    # psi kills every vector with a generator in an edge slot
    assert psi[1] == [0, -1, 1, -1, 2, -1, 3, -1]
    for i in range(3):
        lhs = matmul(map_matrix(psi[i], tutte.rank(i)), map_matrix(phi[i], len(psi[i])))
        assert lhs == identity(tutte.rank(i))


def test_phi_psi_refuses_mismatched_complexes(complex_of):
    path, double_edge = build(3, [(0, 1), (1, 2)]), build(3, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match="one graph"):
        phi_psi(complex_of(path, "tutte"), complex_of(double_edge, "yamada"))
    for first, second in (("yamada", "tutte"), ("tutte", "tutte"), ("yamada", "yamada")):
        with pytest.raises(ValueError, match="one graph"):
            phi_psi(complex_of(path, first), complex_of(path, second))
    phi, psi = phi_psi(complex_of(path, "tutte"), complex_of(path, "yamada"))
    assert len(phi) == len(psi) == 3


def test_phi_psi_chain_maps_on_samples(complex_of):
    for G in (bigon(), triangle(), tree_graph(2), build(1, [])):
        tutte, yamada = complex_of(G, "tutte"), complex_of(G, "yamada")
        phi, psi = phi_psi(tutte, yamada)
        phi = [map_matrix(f, yamada.rank(i)) for i, f in enumerate(phi)]
        psi = [map_matrix(f, tutte.rank(i)) for i, f in enumerate(psi)]
        for i in range(yamada.height_count - 1):
            d_t, d_y = differential(tutte, i), differential(yamada, i)
            assert matmul(phi[i + 1], d_t) == matmul(d_y, phi[i])
            assert matmul(psi[i + 1], d_y) == matmul(d_t, psi[i])


def test_basis_vector_bidegree_counts_generators():
    # the top element of C^{e1,e2} sets both edge bits, the component bit and the cycle bit
    cx = build_complex(bigon(), "yamada")
    assert cx.state_offsets[2][0b11] + 0b1111 == cx.rank(2) - 1
    assert 0b1111 in cx.bidegree_index[2][(3, 1)]


def test_build_complex_refuses_oversized_chain_rank(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an oversized complex must not reach the per-edge maps")

    monkeypatch.setattr(cube, "_edge_rule", never)
    with pytest.raises(ValueError, match=str(2**64)):
        build_complex(build(64, []), "yamada")
    with pytest.raises(ValueError, match=str(2 * 5**12)):
        build_complex(bouquet_graph(12), "yamada")
    with pytest.raises(ValueError, match=f"at least {2 * 3**21},"):
        build_complex(bouquet_graph(21), "tutte")
    assert 2 * 5**12 > MAX_CHAIN_RANK


def test_build_complex_refuses_before_enumerating_states(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("an oversized complex must be refused before any state is labelled")

    monkeypatch.setattr(cube, "state_components", never)
    with pytest.raises(ValueError, match=f"at least {2 * 3**16},"):
        build_complex(bouquet_graph(16), "tutte")
    with pytest.raises(ValueError, match="rank at least"):
        build_complex(cycle_graph(18), "tutte")


@pytest.mark.parametrize(
    "yamada,refused,passing",
    [(False, 17, [8, 9, 10]), (True, 11, [6, 7, 8, 9])],
    ids=["tutte", "yamada"],
)
def test_floor_refuses_every_graph_over_the_edge_counts(yamada, refused, passing):
    """The floor alone refuses every tutte complex with more than 16 edges and
    every yamada complex with more than 10, whatever the vertex count, so
    no such graph reaches state enumeration; with one edge fewer, the floor
    passes for the vertex counts in `passing` and no others."""
    for vertex_count in range(1, 65):
        for edge_count in range(refused, 41):
            with pytest.raises(ValueError, match="rank at least"):
                cube._refuse_by_floor(vertex_count, edge_count, yamada)
    passes = []
    for vertex_count in range(1, 65):
        try:
            cube._refuse_by_floor(vertex_count, refused - 1, yamada)
        except ValueError:
            continue
        passes.append(vertex_count)
    assert passes == passing


@pytest.mark.parametrize("G", [K4, cycle_graph(6)], ids=["K4", "cycle6"])
def test_differential_view_matches_blocks_and_squares_to_zero(G, complex_of):
    # a global oracle for the face-by-face d^2 check, beyond the corpus
    cx = complex_of(G, "yamada")
    for i in range(cx.height_count - 1):
        d = differential(cx, i)
        rows_of, cols_of = cx.bidegree_index[i + 1], cx.bidegree_index[i]
        # every nonzero of d, restricted to its bidegree: both ends share it
        row_at = {pos: (jk, r) for jk, idx in rows_of.items() for r, pos in enumerate(idx)}
        col_at = {pos: (jk, c) for jk, idx in cols_of.items() for c, pos in enumerate(idx)}
        restricted = {}
        for r, c, v in d.sorted_entries():
            (jk, local_r), (col_jk, local_c) = row_at[r], col_at[c]
            assert jk == col_jk
            restricted.setdefault(jk, {})[(local_r, local_c)] = v
        for jk in set(rows_of) | set(cols_of):
            shape = (len(rows_of.get(jk, [])), len(cols_of.get(jk, [])))
            assert IntMatrix(*shape, restricted.get(jk)) == cx.blocks[i][jk]
        assert d.nnz() == sum(block.nnz() for block in cx.blocks[i].values())
        assert matmul(differential(cx, i + 1), d).is_zero()


# A loop, a parallel pair, a merge with a bystander component and an isolated vertex.
MIXED = Multigraph(5, ((0, 1), (1, 2), (2, 0), (2, 2), (1, 2)))


def _differentials_from_the_rule(G, cx):
    """Every d^i assembled entry by entry from `_edge_rule`, with the sign
    (-1)^|S n [0, e)|, outside the per-build memo of `build_complex`."""
    components = state_components(G)
    out = []
    for i in range(cx.height_count - 1):
        entries = {}
        for mask, src_off in cx.state_offsets[i].items():
            labels = components[mask][0]
            size = cx.state_sizes[i][mask]
            for e, (u, v) in enumerate(G.edges):
                if mask >> e & 1:
                    continue
                sign = -1 if (mask & ((1 << e) - 1)).bit_count() % 2 else 1
                dst_off = cx.state_offsets[i + 1][mask | 1 << e]
                pairs = cube._edge_rule(mask, e, labels[u], labels[v], size, cx.variant == "yamada")
                for x, y in pairs:
                    entries[(dst_off + y, src_off + x)] = sign
        out.append(IntMatrix(cx.rank(i + 1), cx.rank(i), entries))
    return out


def test_memoised_edge_maps_match_the_rule_applied_to_every_state_and_edge(corpus, complex_of):
    # an oracle for the memo key: a key that left out an input of the rule
    # would reuse one state's map at another state whose map differs
    graphs = list(corpus) + [K4, cycle_graph(6), MIXED]
    for G in graphs:
        for variant in ("yamada", "tutte"):
            cx = complex_of(G, variant)
            assembled = [differential(cx, i) for i in range(cx.height_count - 1)]
            assert assembled == _differentials_from_the_rule(G, cx), (G, variant)


@pytest.mark.parametrize("G,calls", [(K4, 15), (bouquet_graph(4), 4)], ids=["K4", "bouquet4"])
def test_each_distinct_edge_map_is_worked_out_once(monkeypatch, G, calls):
    # The memo key holds exactly what `_edge_rule` reads. In the tutte variant
    # that is the component pair and the slots of S, not the edge or |S|: a
    # key with either would work out the same map again at other edges or
    # heights.
    seen = []

    def counted(*args):
        seen.append(args)
        return rule(*args)

    rule = cube._edge_rule
    monkeypatch.setattr(cube, "_edge_rule", counted)
    build_complex(G, "tutte")
    assert len(seen) == calls


def test_blocks_keep_under_40_bytes_per_nonzero():
    # Bytes only, no time: what the built complex of cycle8 (tutte, 26,248 block
    # nonzeros) still holds after the build, per nonzero. With flat triplet
    # arrays it is about 26; a {(row, col): sign} dict per block holds about 108.
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cx = build_complex(cycle_graph(8), "tutte")
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    nonzeros = sum(block.nnz() for level in cx.blocks for block in level.values())
    assert nonzeros == 26_248
    assert retained / nonzeros < 40
