import itertools
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphhom.homology as homology
import graphhom.matrices as matrices
from graphhom.cube import VARIANTS, build_complex, graded_euler, phi_psi, projection_map
from graphhom.homology import (
    CohomologyTable,
    Summand,
    chain_map_defect,
    cohomology,
    invariant_factors,
    prime_powers,
    summand_defect,
    yamada_cohomology,
)
from graphhom.invariants import g_polynomials
from graphhom.laurent import BivariateLaurent
from graphhom.matrices import IntMatrix, _eliminate
from graphhom.multigraph import (
    Multigraph,
    bigon,
    build,
    cycle_graph,
    multiedge_graph,
    permute_edges,
    reduce,
    tree_graph,
    triangle,
)
from graphhom.verify import default_gamma

import matrix_route
from matrix_route import determinantal_factors, from_rows, matmul, rank_and_kernel

P = BivariateLaurent

# Frozen golden tables for the bigon, one summand per (height, bidegree).
BIGON_YAMADA = {
    (0, 1, 0): Summand(1),
    (0, 2, 0): Summand(1),
    (2, 2, 0): Summand(1),
    (2, 3, 0): Summand(1),
    (2, 0, 1): Summand(1),
    (2, 1, 1): Summand(3),
    (2, 2, 1): Summand(3),
    (2, 3, 1): Summand(1),
}
BIGON_TUTTE = {
    (0, 1, 0): Summand(1),
    (0, 2, 0): Summand(1),
    (2, 0, 1): Summand(1),
    (2, 1, 1): Summand(1),
}
BIGON_EULER = P(
    {(1, 0): 1, (2, 0): 2, (3, 0): 1, (0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1}
)


def _rank_mod_p(mat, p):
    """Reference rank over F_p: row echelon form kept as one reduced row
    per leading column."""
    rows = {}
    for r, c, v in mat.sorted_entries():
        rows.setdefault(r, {})[c] = v
    echelon = {}
    for entries in rows.values():
        row = {c: v % p for c, v in entries.items() if v % p}
        while row:
            lead = min(row)
            if lead not in echelon:
                inv = pow(row[lead], -1, p)
                echelon[lead] = {c: v * inv % p for c, v in row.items()}
                break
            f = row[lead]
            for c, v in echelon[lead].items():
                x = (row.get(c, 0) - f * v) % p
                if x:
                    row[c] = x
                else:
                    row.pop(c, None)
    return len(echelon)


def test_snf_identity():
    mat = matrix_route.identity(3)
    assert _eliminate(mat) == determinantal_factors(mat) == [1, 1, 1]


def test_snf_divisibility_example():
    mat = from_rows([[2, 4], [6, 8]])
    assert _eliminate(mat) == determinantal_factors(mat) == [2, 4]


def test_snf_column_vector():
    mat = from_rows([[1], [1]])
    assert _eliminate(mat) == determinantal_factors(mat) == [1]


def test_snf_empty_and_zero():
    for mat in (IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0), IntMatrix.zeros(2, 2)):
        assert _eliminate(mat) == determinantal_factors(mat) == []


def test_snf_random_matrices_seeded():
    rng = random.Random(20240)
    for _ in range(60):
        m = rng.randint(0, 8)
        n = rng.randint(0, 8)
        mat = from_rows([[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)], n)
        assert _eliminate(mat) == determinantal_factors(mat)


@st.composite
def sparse_unit_heavy_matrices(draw):
    m = draw(st.integers(0, 12))
    n = draw(st.integers(0, 12))
    value = st.sampled_from([0] * 10 + [1, -1] * 4 + [2, -2, 3, -3])
    dense = [[draw(value) for _ in range(n)] for _ in range(m)]
    for r in draw(st.sets(st.integers(0, 11), max_size=3)):
        if r < m:
            dense[r] = [0] * n
    for c in draw(st.sets(st.integers(0, 11), max_size=3)):
        if c < n:
            for row in dense:
                row[c] = 0
    return from_rows(dense, n)


@settings(max_examples=150, deadline=None)
@given(sparse_unit_heavy_matrices())
def test_snf_property_on_sparse_unit_heavy_matrices(mat):
    assert _eliminate(mat) == determinantal_factors(mat)


def test_rank_mod_p_counts_factors_prime_to_p(corpus, complex_of):
    # rank over F_p = rank over Q - #(invariant factors divisible by p), for p = 2, 3;
    # the identity holds whatever the pivot order. K5 tutte: rank 9,378, 72 nonzero blocks.
    k4, k5 = (Multigraph(n, tuple(itertools.combinations(range(n), 2))) for n in (4, 5))
    complexes = [complex_of(G, variant) for G in corpus for variant in ("yamada", "tutte")]
    complexes += [complex_of(k4, "yamada"), complex_of(cycle_graph(6), "yamada")]
    complexes.append(complex_of(k5, "tutte"))
    blocks = divisible_by_2 = 0
    for cx in complexes:
        for level in cx.blocks:
            for block in level.values():
                if block.is_zero():
                    continue
                factors = _eliminate(block)
                for p in (2, 3):
                    assert _rank_mod_p(block, p) == sum(1 for f in factors if f % p)
                blocks += 1
                divisible_by_2 += sum(1 for f in factors if f % 2 == 0)
    assert blocks
    assert divisible_by_2  # the corpus has Z/2 torsion


def test_factors_of_small_corpus_blocks_match_determinantal_divisors(corpus, complex_of):
    # Every nonzero block of at most 8 rows and 8 columns of the corpus complexes,
    # both variants: 6,025 blocks, 9 of them with a factor 2 (Z/2 torsion).
    blocks = with_factor_2 = 0
    for G in corpus:
        for variant in VARIANTS:
            for level in complex_of(G, variant).blocks:
                for block in level.values():
                    if block.is_zero() or block.rows > 8 or block.cols > 8:
                        continue
                    factors = _eliminate(block)
                    assert factors == determinantal_factors(block), (G, variant)
                    blocks += 1
                    with_factor_2 += 2 in factors
    assert blocks == 6025
    assert with_factor_2 == 9


def test_pivot_queue_pushes_fewer_keys_than_nonzeros(monkeypatch, complex_of):
    # One heap key per changed row, not one per entry. On K5 tutte a queue keyed by
    # entry pushed 196,506 keys for the 34,500 nonzeros of the blocks; keyed by row, 17,085.
    cx = complex_of(Multigraph(5, tuple(itertools.combinations(range(5), 2))), "tutte")
    nonzeros = sum(block.nnz() for level in cx.blocks for block in level.values())
    pushes = 0
    heappush = matrices.heappush

    def counting_heappush(heap, key):
        nonlocal pushes
        pushes += 1
        heappush(heap, key)

    monkeypatch.setattr(matrices, "heappush", counting_heappush)
    cohomology(cx)
    assert 0 < pushes < nonzeros


def test_kernel_basis():
    d = matrix_route.differential(build_complex(bigon(), "yamada"), 0)
    _, ker = rank_and_kernel(d)
    assert ker.cols == 2
    assert matmul(d, ker).is_zero()
    assert len(_eliminate(ker)) == 2
    # everything is a cocycle for a zero map
    assert rank_and_kernel(IntMatrix.zeros(0, 3))[1].cols == 3


def test_rank_nullity_per_block(corpus, complex_of, table_of):
    # Free ranks by two routes: the kernel of each block, from a row reduction
    # over the rationals, less the rank coming in, against the table's count
    # from the invariant factors alone.
    for G in corpus:
        for variant in VARIANTS:
            cx, table = complex_of(G, variant), table_of(G, variant)
            rank_in = {}
            for i in range(cx.height_count):
                rank_out = {}
                for jk, idx in cx.bidegree_index[i].items():
                    # no block is stored out of the top height
                    top = i == len(cx.blocks)
                    block = IntMatrix.zeros(0, len(idx)) if top else cx.blocks[i][jk]
                    rank_out[jk], kernel = rank_and_kernel(block)
                    assert matmul(block, kernel).is_zero()
                    assert kernel.cols == len(idx) - rank_out[jk]
                    free = kernel.cols - rank_in.get(jk, 0)
                    assert table.free_rank(i, *jk) == free, (G, variant, i, jk)
                rank_in = rank_out


def test_bigon_yamada_golden_table():
    table = cohomology(build_complex(bigon(), "yamada"))
    assert table.summands == BIGON_YAMADA
    assert table.height_count == 3
    assert table.euler() == BIGON_EULER


def test_bigon_tutte_golden_table():
    table = cohomology(build_complex(bigon(), "tutte"))
    assert table.summands == BIGON_TUTTE
    assert table.euler() == P({(1, 0): 1, (2, 0): 1, (0, 1): 1, (1, 1): 1})


def test_single_vertex_cohomology():
    table = cohomology(build_complex(build(1, []), "yamada"))
    assert table.summands == {(0, 0, 0): Summand(1), (0, 1, 0): Summand(1)}


def test_empty_graph_cohomology():
    table = cohomology(build_complex(build(0, []), "yamada"))
    assert table.summands == {(0, 0, 0): Summand(1)}
    assert table.euler() == P({(0, 0): 1})


def test_euler_identity_on_samples():
    for G in (bigon(), triangle(), tree_graph(2)):
        cx = build_complex(G, "yamada")
        assert graded_euler(cx) == cohomology(cx).euler() == g_polynomials(G)[1]


def test_torsion_reporting_on_synthetic_block():
    # hand-built two-height complex whose only differential is multiplication by 2
    cx = build_complex(tree_graph(1), "tutte")
    synthetic = type(cx)(
        variant=cx.variant,
        graph=cx.graph,
        state_offsets=cx.state_offsets,
        state_sizes=cx.state_sizes,
        bidegree_index=cx.bidegree_index,
        blocks=[
            {
                jk: IntMatrix.from_triplets(
                    b.rows, b.cols, b.row_of, b.col_of, array("b", [2 * v for v in b.val_of])
                )
                for jk, b in level.items()
            }
            for level in cx.blocks
        ],
    )
    table = cohomology(synthetic)
    torsion = [s.torsion for _, s in table.sorted_items() if s.torsion]
    assert torsion and all(t == (2,) for t in torsion)


def test_cohomology_table_json_schema():
    table = cohomology(build_complex(bigon(), "tutte"))
    data = table.to_json_dict()
    assert data["variant"] == "tutte"
    assert [g["i"] for g in data["groups"]] == [0, 1, 2]
    assert data["groups"][1]["summands"] == []
    assert data["groups"][0]["summands"] == [
        {"bidegree": [1, 0], "free_rank": 1, "torsion": []},
        {"bidegree": [2, 0], "free_rank": 1, "torsion": []},
    ]
    assert data["euler"]["terms"][0] == {"x": 2, "y": 0, "c": "1"}


def _chain_maps(G, complex_of):
    """(name, source, target, per-height target arrays) of phi, psi and the
    projection onto `default_gamma` in both variants."""
    cx_t, cx_y = complex_of(G, "tutte"), complex_of(G, "yamada")
    phi, psi = phi_psi(cx_t, cx_y)
    out = [("phi", cx_t, cx_y, phi), ("psi", cx_y, cx_t, psi)]
    for src in (cx_t, cx_y):
        dst, maps = projection_map(src, default_gamma(G))
        out.append((f"{src.variant} projection", src, dst, maps))
    return out


def test_chain_map_defect_agrees_with_the_matrix_route(corpus, complex_of):
    # The reference multiplies IntMatrix forms of the maps and of the global
    # differentials. Each map is also corrupted at every height where it is
    # nonzero, by killing the image of the element whose image is the smallest.
    K4 = Multigraph(4, tuple(itertools.combinations(range(4), 2)))
    corrupted = failing = 0
    for G in list(corpus) + [K4, cycle_graph(6)]:
        for name, src, dst, maps in _chain_maps(G, complex_of):
            heights = range(src.height_count - 1)
            d_src = [matrix_route.differential(src, i) for i in heights]
            d_dst = [matrix_route.differential(dst, i) for i in heights]

            def reference(mats):
                failing = (
                    i
                    for i in heights
                    if matmul(mats[i + 1], d_src[i]) != matmul(d_dst[i], mats[i])
                )
                return next(failing, None)

            mats = [matrix_route.map_matrix(f, dst.rank(i)) for i, f in enumerate(maps)]
            assert chain_map_defect(src, dst, maps) is None
            assert reference(mats) is None, (G, name)
            for h, f in enumerate(maps):
                if max(f, default=-1) < 0:
                    continue
                # the map preserves the bidegree
                src_jk = {pos: jk for jk, idx in src.bidegree_index[h].items() for pos in idx}
                dst_jk = {pos: jk for jk, idx in dst.bidegree_index[h].items() for pos in idx}
                assert all(src_jk[l] == dst_jk[t] for l, t in enumerate(f) if t >= 0)
                _, l = min((t, l) for l, t in enumerate(f) if t >= 0)
                bad = f[:l] + [-1] + f[l + 1 :]
                height = chain_map_defect(src, dst, maps[:h] + [bad] + maps[h + 1 :])
                bad_mats = mats[:h] + [matrix_route.map_matrix(bad, dst.rank(h))] + mats[h + 1 :]
                assert height == reference(bad_mats), (G, name, h)
                corrupted += 1
                failing += height is not None
    assert failing > 1000 and corrupted > failing


def test_chain_map_defect_rejects_non_chain_maps(complex_of):
    cx = complex_of(bigon(), "tutte")
    identity = [list(range(cx.rank(i))) for i in range(cx.height_count)]
    assert chain_map_defect(cx, cx, identity) is None
    for bad in (
        identity[:2],
        identity[:2] + [identity[2][:-1]],
        identity[:2] + [[4] * 4],
        identity[:2] + [[-2, 1, 2, 3]],
    ):
        with pytest.raises(ValueError, match="one target array per height"):
            chain_map_defect(cx, cx, bad)
    # the identity at every height but one, where one element is kept: not a chain map
    assert chain_map_defect(cx, cx, [identity[0], [0, -1, -1, -1], identity[2]]) == 0


def test_prime_powers():
    assert prime_powers([12, 2]) == {4: 1, 3: 1, 2: 1}
    assert prime_powers([360, 49, 97]) == {8: 1, 9: 1, 5: 1, 49: 1, 97: 1}
    assert prime_powers([2, 2, 1]) == {2: 2}
    assert prime_powers([]) == {}


@pytest.mark.parametrize(
    "tutte, yamada, passes",
    [
        (Summand(0, (2,)), Summand(0, (6,)), True),
        (Summand(0, (2, 3)), Summand(0, (6,)), True),
        (Summand(0, (4,)), Summand(0, (2, 2)), False),
        (Summand(0, (2, 2)), Summand(0, (4,)), False),
        (Summand(0, (4, 2, 3)), Summand(0, (12, 2)), True),
        (Summand(2, (2,)), Summand(1, (2,)), False),
    ],
    ids=["2_in_6", "2+3_in_6", "4_in_2+2", "2+2_in_4", "4+2+3_in_12+2", "free_rank"],
)
def test_summand_defect_splits_torsion_into_prime_powers(tutte, yamada, passes):
    key = (1, 2, 0)
    small = CohomologyTable("tutte", 3, {(0, 1, 0): Summand(1), key: tutte})
    large = CohomologyTable("yamada", 3, {(0, 1, 0): Summand(1), key: yamada})
    assert summand_defect(small, large) == (None if passes else key)


def test_summand_defect_reports_the_lowest_key_and_reads_a_missing_summand_as_zero():
    small = CohomologyTable("tutte", 3, {(2, 0, 1): Summand(1), (1, 2, 0): Summand(0, (3,))})
    assert summand_defect(small, CohomologyTable("yamada", 3)) == (1, 2, 0)
    assert summand_defect(CohomologyTable("tutte", 3), small) is None


def test_invariant_factors():
    assert invariant_factors(prime_powers([4, 2, 3])) == (2, 12)
    assert invariant_factors({4: 1, 2: 1, 3: 1}) == (2, 12)
    assert invariant_factors({2: 3}) == (2, 2, 2)
    assert invariant_factors({}) == ()
    assert invariant_factors({8: 1, 9: 2, 5: 1, 49: 1, 97: 1}) == (9, 8 * 9 * 5 * 49 * 97)
    rng = random.Random(1414)
    for _ in range(200):
        # a random divisibility chain of factors above 1
        factors = [rng.choice([2, 3, 4, 5, 6, 9, 12, 25, 97])]
        for _ in range(rng.randrange(5)):
            factors.append(factors[-1] * rng.choice([1, 1, 2, 3, 5, 7]))
        assert invariant_factors(prime_powers(factors)) == tuple(factors)
        assert prime_powers(invariant_factors(prime_powers(factors))) == prime_powers(factors)


# The routes of yamada cohomology are compared on these graphs and on two
# seeded edge shuffles of each: a loop, a parallel pair, a merge with a
# bystander component and an isolated vertex in MIXED.
ROUTE_GRAPHS = {
    "K4": Multigraph(4, tuple(itertools.combinations(range(4), 2))),
    "cycle6": cycle_graph(6),
    "cycle8": cycle_graph(8),
    "path6": tree_graph(6),
    "multiedge7": multiedge_graph(7),
    "mixed": Multigraph(5, ((0, 1), (1, 2), (2, 0), (2, 2), (1, 2))),
}


def _shuffled(G, seed):
    sigma = list(range(G.edge_count))
    random.Random(seed).shuffle(sigma)
    return permute_edges(G, sigma)


def _same_table(fast, direct):
    assert fast.height_count == direct.height_count
    assert fast.to_json_dict() == direct.to_json_dict()
    assert fast == direct


@pytest.mark.parametrize("name", sorted(ROUTE_GRAPHS))
def test_yamada_cohomology_matches_the_whole_complex(name, table_of):
    G = ROUTE_GRAPHS[name]
    for H in (G, _shuffled(G, 1), _shuffled(G, 2)):
        _same_table(yamada_cohomology(H), table_of(H, "yamada"))


def test_yamada_cohomology_matches_the_whole_complex_on_the_corpus(corpus, table_of):
    for G in corpus:
        for H in (G, _shuffled(G, 1), _shuffled(G, 2)):
            _same_table(yamada_cohomology(H), table_of(H, "yamada"))


def _contraction(G, mask):
    """G/A for the edges A of `mask`, by `multigraph.reduce`: each edge of A,
    from the highest index down, is contracted, or deleted once it is a loop.
    The edges outside A keep their order."""
    for e in reversed(range(G.edge_count)):
        if mask >> e & 1:
            u, v = G.edges[e]
            G = reduce(G, e, "delete" if u == v else "contract")
    return G


@pytest.mark.parametrize("name, minors", [("K4", 12), ("cycle6", 7), ("path6", 7), ("mixed", 12)])
def test_every_memo_hit_equals_the_table_of_its_own_minor(name, minors, monkeypatch, table_of):
    G = ROUTE_GRAPHS[name]
    memo = {}

    def recording_cohomology(cx):
        memo[cx.graph] = cohomology(cx)
        return memo[cx.graph]

    monkeypatch.setattr(homology, "cohomology", recording_cohomology)
    yamada_cohomology(G)
    keys = []
    for mask in range(1 << G.edge_count):
        minor = _contraction(G, mask)
        key = Multigraph(
            minor.vertex_count, tuple(sorted(tuple(sorted(edge)) for edge in minor.edges))
        )
        keys.append(key)
        assert table_of(minor, "tutte") == memo[key]
    # one table per distinct key, worked out when the key is first met
    assert list(memo) == list(dict.fromkeys(keys))
    assert len(memo) == minors < len(keys)


def test_yamada_cohomology_euler_is_the_g_polynomial(corpus):
    prism = Multigraph(
        6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5))
    )
    for G in list(corpus) + [prism]:
        assert yamada_cohomology(G).euler() == g_polynomials(G)[1]


def test_yamada_cohomology_adds_torsion_as_prime_powers(monkeypatch):
    # Synthetic minor tables for the bigon: the loop G/{e} (twice, for
    # A = {0} and {1}) has Z/4 + Z/12 at (1, 1, 0), and the point G/{0, 1},
    # with b1 = 1, has Z/2 at (0, 0, 0). Shifted by |A| they meet at (2, 2, 0).
    tables = {
        2: CohomologyTable("tutte", 3),
        1: CohomologyTable("tutte", 2, {(1, 1, 0): Summand(1, (4, 12))}),
        0: CohomologyTable("tutte", 1, {(0, 0, 0): Summand(0, (2,))}),
    }
    monkeypatch.setattr(homology, "cohomology", lambda cx: tables[cx.graph.edge_count])
    table = yamada_cohomology(bigon())
    assert table.height_count == 3
    assert table.summands == {
        (2, 2, 0): Summand(2, (2, 4, 4, 12, 12)),
        (2, 2, 1): Summand(0, (2,)),
    }
