import gc
import hashlib
import inspect
import json
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphhom.cube as cube
import graphhom.homology as homology
from graphhom.cli import run
from graphhom.cube import (
    MAX_CHAIN_RANK,
    VARIANTS,
    build_complex,
    graded_euler,
    phi_psi,
    projection_map,
)
from graphhom.homology import cohomology, tutte_cohomology
from graphhom.invariants import g_polynomials
from graphhom.laurent import BivariateLaurent
from graphhom.matrices import IntMatrix
from graphhom.multigraph import (
    Multigraph,
    bigon,
    bouquet_graph,
    build,
    cycle_graph,
    multiedge_graph,
    permute_edges,
    state_components,
    to_json_dict,
    tree_graph,
    triangle,
)
from graphhom.verify import CHECK_NAMES, default_sigma, run_checks

from conftest import record_builds
from matrix_route import contents, differential, identity, int_matrix, map_matrix, matmul

P = BivariateLaurent
K4 = Multigraph(4, tuple((u, v) for u in range(4) for v in range(u + 1, 4)))
K5 = Multigraph(5, tuple((u, v) for u in range(5) for v in range(u + 1, 5)))


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
    """The target array of the unsigned map C^S -> C^(S+e) for S = mask,
    with the ranks of C^S and C^(S+e)."""
    cx = build_complex(G, variant)
    i = mask.bit_count()
    return _rule_maps(cx)[mask, e], cx.state_sizes[i][mask], cx.state_sizes[i + 1][mask | 1 << e]


def _rule_maps(cx):
    """(S, e) -> the target array of `_edge_rule` for every state S of `cx`
    and edge e outside S, outside the per-build memo of `build_complex`."""
    G = cx.graph
    components = state_components(G)
    maps = {}
    for sizes in cx.state_sizes:
        for mask, size in sizes.items():
            labels = components[mask][0]
            for e, (u, v) in enumerate(G.edges):
                if not mask >> e & 1:
                    maps[mask, e] = cube._edge_rule(
                        mask, e, labels[u], labels[v], size, cx.variant == "yamada"
                    )
    return maps


def test_per_edge_map_merge_case():
    # t (x) t dies; 1 (x) 1 lands on the unit edge factor times the unit component
    assert _edge_map(bigon(), 0b00, 0, "yamada") == ([0, 2, 2, -1, -1], 4, 4)


def test_per_edge_map_cycle_case():
    target, cols, rows = _edge_map(bigon(), 0b10, 0, "yamada")
    # t on edge slot e2 goes to 1_A (x) t (x) 1_A (x) 1_B
    assert target[1] == 2
    assert (target, cols, rows) == ([0, 2, 4, 6, -1], 4, 16)


def test_per_edge_map_merge_with_bystander_component():
    # three isolated vertices; the added edge merges the second and third
    G = build(3, [(1, 2)])
    assert _edge_map(G, 0b0, 0, "yamada") == ([0, 2, 4, 6, 4, 6, -1, -1, -1], 8, 8)


def test_per_edge_map_tutte_variant_drops_edge_factors():
    assert _edge_map(bigon(), 0b00, 0, "tutte") == ([0, 1, 1, -1, -1], 4, 2)


def test_build_complex_bigon_ranks_and_differentials():
    cx = build_complex(bigon(), "yamada")
    assert [cx.rank(i) for i in range(cx.height_count)] == [4, 8, 16]
    assert contents(differential(cx, 0)) == contents(
        int_matrix(8, 4, {(0, 0): 1, (2, 1): 1, (2, 2): 1, (4, 0): 1, (6, 1): 1, (6, 2): 1})
    )
    assert contents(differential(cx, 1)) == contents(
        int_matrix(
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
    )


def test_build_complex_tutte_ranks():
    cx = build_complex(bigon(), "tutte")
    assert [cx.rank(i) for i in range(cx.height_count)] == [4, 4, 4]


def test_build_complex_single_vertex():
    cx = build_complex(build(1, []), "yamada")
    assert cx.height_count == 1
    assert cx.rank(0) == 2
    assert len(cx.blocks) == 0 and list(cx.nonzeros(0)) == []


def test_build_complex_unknown_variant():
    with pytest.raises(ValueError, match="unknown variant"):
        build_complex(bouquet_graph(5), "euler")


def test_the_public_builder_rejects_chromatic_as_an_unknown_variant():
    # The chromatic complex of a cycle summand is built by the private
    # builder alone, on the up-set that `tutte_cohomology` hands over.
    assert list(inspect.signature(build_complex).parameters) == ["G", "variant"]
    message = "unknown variant 'chromatic'; expected one of ('yamada', 'tutte')"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_complex(bigon(), "chromatic")


def _entries(level):
    """The blocks of one height as sorted (bidegree, shape, entries)."""
    return sorted(
        (jk, b.rows, b.cols, sorted(zip(b.row_of, b.col_of, b.val_of))) for jk, b in level.items()
    )


@pytest.mark.parametrize(
    "cut",
    [slice(0, 1), slice(1, 4), slice(-2, None), slice(None, -3), slice(None, None, 2),
     slice(4, 0, -2), slice(None, None, -1), slice(3, 3), slice(2, 99)],
)
def test_height_blocks_slices_read_the_heights_they_name(cut):
    # Blocks are written anew on each read, so they compare by entries; the
    # index keeps each height it wrote, so a slice holds the same objects.
    cx = build_complex(cycle_graph(5), "tutte")
    blocks = cx.blocks[cut]
    assert isinstance(blocks, list)
    assert [_entries(level) for level in blocks] == [
        _entries(cx.blocks[h]) for h in range(len(cx.blocks))[cut]
    ]
    heights = range(len(cx.bidegree_index))[cut]
    index = cx.bidegree_index[cut]
    assert len(index) == len(heights)
    assert all(level is cx.bidegree_index[h] for level, h in zip(index, heights))


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
        for variant in ("yamada", "tutte"):
            # target of each source, -1 when it is killed (also at index -1)
            targets = _rule_maps(build_complex(G, variant))
            for mask in range(1 << G.edge_count):
                free = [e for e in range(G.edge_count) if not mask >> e & 1]
                for a in free:
                    for b in free:
                        if a >= b:
                            continue
                        after_a, after_b = targets[mask | 1 << a, b], targets[mask | 1 << b, a]
                        ab = [after_a[y] for y in targets[mask, a]]
                        ba = [after_b[y] for y in targets[mask, b]]
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
                    assert contents(lhs) == contents(rhs)


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
        assert contents(lhs) == contents(identity(tutte.rank(i)))


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
            assert contents(matmul(phi[i + 1], d_t)) == contents(matmul(d_y, phi[i]))
            assert contents(matmul(psi[i + 1], d_y)) == contents(matmul(d_t, psi[i]))


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
            assert contents(int_matrix(*shape, restricted.get(jk))) == contents(cx.blocks[i][jk])
        assert d.nnz() == sum(block.nnz() for block in cx.blocks[i].values())
        assert matmul(differential(cx, i + 1), d).is_zero()


# A loop, a parallel pair, a merge with a bystander component and an isolated vertex.
MIXED = Multigraph(5, ((0, 1), (1, 2), (2, 0), (2, 2), (1, 2)))


def _differentials_from_the_rule(cx):
    """Every d^i assembled entry by entry from `_edge_rule` (`_rule_maps`),
    with the sign (-1)^|S n [0, e)|."""
    entries = [{} for _ in range(cx.height_count - 1)]
    for (mask, e), target in _rule_maps(cx).items():
        i = mask.bit_count()
        sign = -1 if (mask & ((1 << e) - 1)).bit_count() % 2 else 1
        src_off, dst_off = cx.state_offsets[i][mask], cx.state_offsets[i + 1][mask | 1 << e]
        for x, y in enumerate(target):
            if y >= 0:
                entries[i][dst_off + y, src_off + x] = sign
    return [int_matrix(cx.rank(i + 1), cx.rank(i), d) for i, d in enumerate(entries)]


def test_memoised_edge_maps_match_the_rule_applied_to_every_state_and_edge(corpus, complex_of):
    # an oracle for the memo key: a key that left out an input of the rule
    # would reuse one state's map at another state whose map differs
    graphs = list(corpus) + [K4, cycle_graph(6), MIXED]
    for G in graphs:
        for variant in ("yamada", "tutte"):
            cx = complex_of(G, variant)
            assembled = [contents(differential(cx, i)) for i in range(cx.height_count - 1)]
            from_rule = [contents(d) for d in _differentials_from_the_rule(cx)]
            assert assembled == from_rule, (G, variant)


# sha256 over the target arrays of `_edge_rule` for every (S, e), as JSON
# [S, e, target] in ascending (S, e) order, of the corpus, K4, cycle6, MIXED
# and multiedge5; taken from the (source, target) pairs that the rule
# returned before it returned target arrays.
RULE_DIGESTS = {
    "yamada": "84b3c339004ad0d12ceb7dfc544a6cf7b398fd31ddf6050286281f81f272e65f",
    "tutte": "70d6ab843466c71f046c806182dcb95b8e21e3f6234a3a11cf6b1b7e2650e359",
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_edge_rule_target_arrays_digest(variant, corpus, complex_of):
    digest = hashlib.sha256()
    for G in [*corpus, K4, cycle_graph(6), MIXED, multiedge_graph(5)]:
        for (mask, e), target in sorted(_rule_maps(complex_of(G, variant)).items()):
            digest.update(json.dumps([mask, e, target]).encode())
    assert digest.hexdigest() == RULE_DIGESTS[variant]


def test_edge_rule_inserts_the_unit_bit_as_the_per_entry_formula_does():
    # |S| edges at odd positions, e at an even one with k of them below, so
    # the insert position is k; sizes 2^(|S| + 1) and 2^14, and one seeded
    # between, run both the strided and the blockwise slice assignments.
    rng = random.Random(2006)
    branches = set()
    for edges in range(14):
        mask = sum(1 << 2 * t + 1 for t in range(edges))
        for width in sorted({edges + 1, rng.randint(edges + 1, 14), 14}):
            size = 1 << width
            for k in range(edges + 1):
                formula = [(x >> k << k + 1) | (x & (1 << k) - 1) for x in range(size)]
                target = cube._edge_rule(mask, 2 * k, 0, 0, size, True)
                assert target == formula + [-1], (edges, width, k)
                branches.add((1 << k) ** 2 <= size)
    assert branches == {True, False}


def test_a_fault_after_killed_entries_is_named_by_its_source(monkeypatch):
    # The first map of the triangle (S = {}, e = 0, rank 8) with sources 0 to
    # 3 killed, and 5 sent to its image with the new edge slot set: one more
    # edge generator. Source 6 is killed too, after it.
    original = cube._edge_rule
    seen = []

    def corrupted(mask, e, *args):
        target = original(mask, e, *args)
        if not seen:
            seen.append(target[5])
            target[:4] = [-1] * 4
            target[5] |= 1
            target[6] = -1
        return target

    monkeypatch.setattr(cube, "_edge_rule", corrupted)
    with pytest.raises(RuntimeError) as caught:
        build_complex(triangle(), "yamada")
    assert str(caught.value) == (
        f"differential d^0 does not preserve the bidegree at entry ({seen[0] | 1},5)"
    )


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


def _brute_members(slots):
    """The bidegrees of a chain module with `slots` in order of their first
    index, each with its indices in ascending order, by reading the
    bidegree off every index in turn."""
    j_slots, k_slots = slots
    low = (1 << j_slots) - 1
    members = {}
    for x in range(1 << j_slots + k_slots):
        members.setdefault(((x & low).bit_count(), (x >> j_slots).bit_count()), []).append(x)
    return list(members.items())


def test_listing_runs_places_and_codes_agree_with_the_brute_grouping():
    # The listing is the brute groups joined in order, each run bounds one
    # group, the places invert the listing, and the codes read p + 32 q.
    for width in range(13):
        for j_slots in range(width + 1):
            shape = (j_slots, width - j_slots)
            groups = _brute_members(shape)
            listing = cube._listing(shape)
            assert listing == [x for _, xs in groups for x in xs], shape
            runs = cube._bidegree_runs(shape)
            assert [(jk, listing[a:b]) for jk, a, b in runs] == groups, shape
            assert [runs.index(run) for run in runs] == [
                q * (j_slots + 1) + p for (p, q), _, _ in runs
            ]
            places = cube._places(listing)
            assert places[-1] == -1 and [listing[t] for t in places[:-1]] == list(range(1 << width))
            codes = [0] * (1 << width)
            for (p, q), xs in groups:
                for x in xs:
                    codes[x] = p + 32 * q
            assert cube._bidegree_codes(shape) == codes, shape


def test_block_groups_drop_killed_entries_and_keep_source_order():
    # Source (2, 0): indices 0..3 listed 0 | 1, 2 | 3. A map onto a module
    # (1, 0), listed 0 | 1, that sends 0 -> 0, 1 -> 1, 2 -> 1 and kills 3.
    listing, runs = cube._listing((2, 0)), cube._bidegree_runs((2, 0))
    places = cube._places(cube._listing((1, 0)))
    groups = cube._block_groups([0, 1, 1, -1, -1], listing, runs, places)
    assert [(jk, list(rows), list(cols)) for jk, rows, cols in groups] == [
        ((0, 0), [0], [0]),
        ((1, 0), [1, 1], [1, 2]),
    ]
    # with nothing killed every bidegree keeps its whole run as columns
    groups = cube._block_groups([0, 1, 1, 0, -1], listing, runs, places)
    assert [(jk, list(rows), cols) for jk, rows, cols in groups] == [
        ((0, 0), [0], range(0, 1)),
        ((1, 0), [1, 1], range(1, 3)),
        ((2, 0), [0], range(3, 4)),
    ]


def _shapes_at(G, variant, h):
    """The slot counts of the states of height h of the whole complex."""
    return {
        ((h if variant == "yamada" else 0) + b0, h - G.vertex_count + b0)
        for mask, (_, b0) in enumerate(state_components(G))
        if mask.bit_count() == h
    }


def _tutte_keys_at(G, h):
    """The rule keys of the tutte maps out of height h: the unordered pair
    of endpoint components (None for one) and the slots of S."""
    keys = set()
    for mask, (labels, b0) in enumerate(state_components(G)):
        if mask.bit_count() == h:
            for e, (u, v) in enumerate(G.edges):
                if not mask >> e & 1:
                    pair = frozenset((labels[u], labels[v])) if labels[u] != labels[v] else None
                    keys.add((pair, (b0, h - G.vertex_count + b0)))
    return keys


@pytest.mark.parametrize("G", [K4, cycle_graph(5), bigon()], ids=["K4", "cycle5", "bigon"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_block_positions_are_worked_out_only_for_the_height_read(monkeypatch, G, variant):
    # The build works out every map's target array and nothing for the
    # blocks: no groups, no listing, no places. A read of height i derives
    # the groups of each map that height uses once, and lists the slot
    # counts of heights i and i + 1 once each, with places for the latter.
    # In the yamada variant the rule key holds |S|, so the maps of height i
    # are the rules the build worked out for states of height i; in the
    # tutte variant they are its keys at height i.
    rules, derived, listed, placed = [], [], [], []
    real_rule, real_groups = cube._edge_rule, cube._block_groups
    real_listing, real_places = cube._listing, cube._places
    monkeypatch.setattr(cube, "_edge_rule", lambda mask, *a: rules.append(mask) or real_rule(mask, *a))
    monkeypatch.setattr(
        cube, "_block_groups", lambda target, *a: derived.append(target) or real_groups(target, *a)
    )
    monkeypatch.setattr(cube, "_listing", lambda shape: listed.append(shape) or real_listing(shape))
    monkeypatch.setattr(cube, "_places", lambda listing: placed.append(listing) or real_places(listing))
    cx = build_complex(G, variant)
    assert rules and not derived and not listed and not placed
    built = len(rules)
    for i in [*range(len(cx.blocks)), 0]:
        derived.clear(), listed.clear(), placed.clear()
        cx.blocks[i]
        assert len({id(target) for target in derived}) == len(derived)
        if variant == "yamada":
            assert len(derived) == sum(mask.bit_count() == i for mask in rules)
        else:
            assert len(derived) == len(_tutte_keys_at(G, i))
        assert sorted(listed) == sorted(_shapes_at(G, variant, i) | _shapes_at(G, variant, i + 1))
        assert len(placed) == len(_shapes_at(G, variant, i + 1))
    assert len(rules) == built  # reading worked out no map again


# One identity rule and one rule that kills both elements, on a module of
# rank 2; each array ends in -1, as the build's target arrays do.
IDENTITY, KILL = 0, 1
FACE_TARGETS = [[0, 1, -1], [-1, -1, -1]]


def _koszul_rows(n, h, rule=IDENTITY):
    """Code rows of every state of height h of an n-edge cube whose every
    map is `rule`, with the parity of the number of edges of S below e."""
    return {
        mask: [
            2 * rule + (mask & (1 << e) - 1).bit_count() % 2
            for e in range(n)
            if not mask >> e & 1
        ]
        for mask in range(1 << n)
        if mask.bit_count() == h
    }


def _check(n, i, below, above, targets=FACE_TARGETS):
    # the build hands its code rows over as tuples, which the check hashes
    below, above = ({mask: tuple(row) for mask, row in rows.items()} for rows in (below, above))
    cube._check_faces(sorted(below), n, below, above, targets, i)


def test_check_faces_passes_an_anticommuting_face():
    _check(2, 1, _koszul_rows(2, 0), _koszul_rows(2, 1))
    for n in range(3, 6):
        for i in range(1, n):
            _check(n, i, _koszul_rows(n, i - 1), _koszul_rows(n, i))


def test_check_faces_raises_on_a_face_whose_sign_products_agree():
    above = _koszul_rows(2, 1)
    above[0b10][0] ^= 1  # the map of edge 0 out of {1} changes sign
    with pytest.raises(RuntimeError, match=r"^d\^2 != 0 between heights 0 and 2$"):
        _check(2, 1, _koszul_rows(2, 0), above)


def test_check_faces_raises_on_a_face_whose_paths_disagree():
    swap = [1, 0, -1]
    below = _koszul_rows(2, 0)
    below[0][0] += 2 * 2  # the map of edge 0 out of {} becomes rule 2, a swap
    with pytest.raises(RuntimeError, match=r"^d\^2 != 0 between heights 0 and 2$"):
        _check(2, 1, below, _koszul_rows(2, 1), FACE_TARGETS + [swap])


def test_check_faces_composes_the_shortest_arrays():
    # Rank-1 modules: each target array is one entry and the trailing -1.
    one, none = [0, -1], [-1, -1]
    _check(2, 1, _koszul_rows(2, 0), _koszul_rows(2, 1), [one])
    for n in range(3, 5):
        _check(n, 2, _koszul_rows(n, 1), _koszul_rows(n, 2), [one])
    above = _koszul_rows(2, 1)
    above[0b10][0] ^= 1
    with pytest.raises(RuntimeError, match=r"^d\^2 != 0 between heights 0 and 2$"):
        _check(2, 1, _koszul_rows(2, 0), above, [one])
    below = _koszul_rows(2, 0)
    below[0][0] += 2  # the map of edge 0 out of {} becomes rule 1, which kills
    with pytest.raises(RuntimeError, match=r"^d\^2 != 0 between heights 0 and 2$"):
        _check(2, 1, below, _koszul_rows(2, 1), [one, none])
    for parities in range(16):
        a, b, c, d = ((parities >> bit) & 1 for bit in range(4))
        _check(2, 1, {0: [2 + a, 2 + c]}, {0b01: [b], 0b10: [d]}, [one, none])


def test_check_faces_passes_a_face_that_kills_everything_whatever_its_signs():
    for parities in range(16):
        a, b, c, d = ((parities >> bit) & 1 for bit in range(4))
        below = {0: [2 * KILL + a, 2 * KILL + c]}
        above = {0b01: [2 * IDENTITY + b], 0b10: [2 * IDENTITY + d]}
        _check(2, 1, below, above)


def test_check_faces_reaches_the_last_face_of_the_last_state():
    # Every map of the four-edge cube out of height 1 is used by exactly one
    # face out of {}: flipping the map of edge 3 out of {2} breaks only the
    # last face, e = 2 and f = 3.
    above = _koszul_rows(4, 1)
    above[0b0100][2] ^= 1
    with pytest.raises(RuntimeError, match=r"^d\^2 != 0 between heights 0 and 2$"):
        _check(4, 1, _koszul_rows(4, 0), above)
    # Out of height 1 of the three-edge cube every state has one face, and
    # each map out of it lies on that face alone: flipping the map of edge 1
    # out of {2} breaks only the face of the last state.
    below = _koszul_rows(3, 1)
    below[0b100][1] ^= 1
    with pytest.raises(RuntimeError, match=r"^d\^2 != 0 between heights 1 and 3$"):
        _check(3, 2, below, _koszul_rows(3, 2))


def test_check_faces_judges_a_state_whose_codes_differ_from_a_judged_one_in_one_parity():
    # Out of height 1 of the three-edge cube, every map has one rule and each
    # state one face. Flipping the map of edge 1 out of {2} breaks the face of
    # {2}, the last state, and leaves its codes equal to those of {1}, whose
    # face anticommutes, but for the parity of one map above: a state is
    # skipped only when every code of its rows, parities included, was judged.
    below, above = _koszul_rows(3, 1), _koszul_rows(3, 2)
    below[0b100][1] ^= 1
    assert below[0b100] == below[0b010]
    assert (above[0b101], above[0b110]) == ([1], [0])
    assert (above[0b011], above[0b110]) == ([0], [0])
    _check(3, 2, {mask: below[mask] for mask in (0b001, 0b010)}, above)
    with pytest.raises(RuntimeError, match=r"^d\^2 != 0 between heights 1 and 3$"):
        _check(3, 2, below, above)


def _retained(make):
    """make() and the bytes that what it allocated still holds once it has
    returned, with its result alive (tracemalloc, so bytes only, no time)."""
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        made = make()
        gc.collect()
        return made, tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()


def test_blocks_keep_under_40_bytes_per_nonzero():
    # What the built complex of cycle8 (tutte, 26,248 block nonzeros) and its
    # blocks hold, per nonzero. With flat triplet arrays and a target array
    # per map it is about 16 (19 while the complex also kept each map's
    # block positions); a {(row, col): sign} dict per block holds about 108.
    (_, blocks), retained = _retained(
        lambda: (cx := build_complex(cycle_graph(8), "tutte"), list(cx.blocks))
    )
    nonzeros = sum(block.nnz() for level in blocks for block in level.values())
    assert nonzeros == 26_248
    assert retained / nonzeros < 40


def test_a_built_complex_holds_under_128_bytes_per_state_and_edge():
    # Before any height is read, K5 (tutte, 1,024 states, 5,120 pairs (S, e))
    # holds its states, their bidegree counts and one target array per rule
    # key: about 81 bytes per pair (94 while it also kept each map's block
    # positions, more when the build wrote its bidegree index up front). A
    # record per pair and an adder per state and bidegree held about 206.
    cx, retained = _retained(lambda: build_complex(K5, "tutte"))
    pairs = sum(len(offsets) * (10 - i) for i, offsets in enumerate(cx.state_offsets))
    assert pairs == 5_120
    assert retained / pairs < 128


def test_cohomology_does_not_grow_what_the_complex_holds():
    # cycle7 (yamada) holds about 162 KiB once built: its states and one
    # target array per rule key. It held about 364 KiB while the complex also
    # kept, per map, the block positions of its entries per bidegree, and
    # 459 KiB when the build wrote its bidegree index up front. Its
    # cohomology reads every height of the blocks and none of the index,
    # and each read works out block positions that it drops again; a
    # complex that kept the blocks it wrote, and dropped a record per (S, e)
    # for each, went from 471 to 512 KiB.
    cx, held = _retained(lambda: build_complex(cycle_graph(7), "yamada"))
    _, grown = _retained(lambda: cohomology(cx) and None)  # the table is not counted
    assert 140_000 < held < 190_000
    assert grown < held / 50


def _count_from_triplets(monkeypatch):
    """The shapes of the matrices `IntMatrix.from_triplets` makes from now on."""
    made = []
    original = IntMatrix.from_triplets.__func__

    def counted(cls, rows, cols, *triplets):
        made.append((rows, cols))
        return original(cls, rows, cols, *triplets)

    monkeypatch.setattr(IntMatrix, "from_triplets", classmethod(counted))
    return made


def _count_reads(monkeypatch):
    """(id, height, dict length) of every read, from now on, of a
    `HeightBlocks`: the blocks or the bidegree index of a complex built
    after this call."""
    reads = []

    class Counted(cube.HeightBlocks):
        def __getitem__(self, i):
            level = super().__getitem__(i)
            reads.append((id(self), range(len(self))[i], len(level)))
            return level

    monkeypatch.setattr(cube, "HeightBlocks", Counted)
    return reads


def test_dump_of_height_0_writes_only_the_blocks_of_height_0(monkeypatch, tmp_path, capsys):
    path = tmp_path / "cycle10.json"
    path.write_text(json.dumps(to_json_dict(cycle_graph(10))))
    made = _count_from_triplets(monkeypatch)
    reads = _count_reads(monkeypatch)
    built = record_builds(monkeypatch, cube)
    assert run(["dump", "--variant", "tutte", "--height", "0", "--input", str(path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert {b["i"] for b in printed} == {0}
    assert sorted(made) == sorted((b["rows"], b["cols"]) for b in printed)
    # one read, of the blocks of height 0: no height of the index is written
    ((cx, _),) = built
    assert [read[:2] for read in reads] == [(id(cx.blocks), 0)]


@pytest.mark.parametrize("variant", VARIANTS)
def test_cohomology_writes_no_height_of_the_index(monkeypatch, variant):
    reads = _count_reads(monkeypatch)
    cx = build_complex(cycle_graph(6), variant)
    cohomology(cx)
    assert [read[:2] for read in reads] == [(id(cx.blocks), i) for i in range(6)]
    # nor does the tutte route, in any D_L it builds and eliminates
    reads.clear()
    built = record_builds(monkeypatch, homology)
    tutte_cohomology(K4)
    assert len(built) == 3
    assert sorted(read[:2] for read in reads) == sorted(
        (id(cx.blocks), i) for cx, _ in built for i in range(len(cx.blocks))
    )


def test_each_read_writes_exactly_the_blocks_of_its_height(monkeypatch):
    cx = build_complex(cycle_graph(6), "yamada")
    made = _count_from_triplets(monkeypatch)
    assert len(cx.blocks) == 6 and not made
    for i in [2, 0, 5, 2, -1, -6]:
        made.clear()
        level = cx.blocks[i]
        h = i % 6
        assert level.keys() == cx.bidegree_index[h].keys() | cx.bidegree_index[h + 1].keys()
        assert sorted(made) == sorted((b.rows, b.cols) for b in level.values())
    made.clear()
    for i in (6, -7):
        with pytest.raises(IndexError):
            cx.blocks[i]
    assert not made


def test_a_second_read_gives_equal_blocks_and_negative_indices_work():
    cx = build_complex(cycle_graph(6), "yamada")
    first = [{jk: contents(b) for jk, b in level.items()} for level in cx.blocks]
    again = [{jk: contents(b) for jk, b in cx.blocks[i].items()} for i in range(-6, 0)]
    assert len(first) == 6 and first == again


def test_run_checks_writes_each_height_of_each_complex_once(monkeypatch):
    # Each height of the blocks of every complex is read, and so written,
    # once. The index is read only by the chain-map checks, on the complexes
    # of K4 and of its subgraph, and each of its heights is written on its
    # first read and kept; the complexes of the reversed K4 are eliminated
    # and never indexed.
    reads = _count_reads(monkeypatch)
    made = _count_from_triplets(monkeypatch)
    recorded = record_builds(monkeypatch, cube)
    assert all(report.passed for report in run_checks(K4, CHECK_NAMES))
    built = [cx for cx, _ in recorded]
    assert len(built) == 6
    blocks = {id(cx.blocks) for cx in built}
    block_reads = [read for read in reads if read[0] in blocks]
    assert sorted(read[:2] for read in block_reads) == sorted(
        (id(cx.blocks), i) for cx in built for i in range(len(cx.blocks))
    )
    assert len(made) == sum(read[2] for read in block_reads)
    reversed_k4 = permute_edges(K4, default_sigma(K4))
    assert {read[0] for read in reads} - blocks == {
        id(cx.bidegree_index) for cx in built if cx.graph != reversed_k4
    }
