import itertools
import json
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphhom.cube as cube
import graphhom.homology as homology
import graphhom.matrices as matrices
import graphhom.multigraph as multigraph
from graphhom.cli import run
from graphhom.cube import VARIANTS, build_complex, graded_euler, phi_psi, projection_map
from graphhom.homology import (
    CohomologyTable,
    Summand,
    _kunneth,
    chain_map_defect,
    cohomology,
    summand_defect,
    tutte_cohomology,
    yamada_cohomology,
)
from graphhom.invariants import g_polynomials
from graphhom.laurent import BivariateLaurent
from graphhom.matrices import IntMatrix, _eliminate, invariant_factors, prime_powers
from graphhom.multigraph import (
    Multigraph,
    bigon,
    bouquet_graph,
    build,
    connected_components,
    cycle_graph,
    cyclic_state_components,
    multiedge_graph,
    permute_edges,
    reduce,
    state_components,
    state_histogram,
    to_json_dict,
    tree_graph,
    triangle,
)
from graphhom.verify import default_gamma

import matrix_route
from conftest import record_builds
from matrix_route import (
    contents,
    determinantal_factors,
    from_rows,
    int_matrix,
    matmul,
    pivot_picks,
    rank_and_kernel,
    to_rows,
    zeros,
)

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
    assert _eliminate(mat)[0] == determinantal_factors(mat) == [1, 1, 1]


def test_snf_divisibility_example():
    mat = from_rows([[2, 4], [6, 8]])
    assert _eliminate(mat)[0] == determinantal_factors(mat) == [2, 4]


@pytest.mark.parametrize(
    "diagonal,expected",
    [
        ([2, 3], [1, 6]),
        ([4, 6, 10], [2, 2, 60]),
        ([2, 2, 3, 9], [1, 1, 6, 18]),
        ([1000003], [1000003]),
    ],
)
def test_snf_of_diagonals_finalised_out_of_divisibility_order(diagonal, expected):
    # every pivot is finalised as soon as it is picked, so the factors come from
    # normalising the whole diagonal
    mat = int_matrix(len(diagonal), len(diagonal), {(t, t): d for t, d in enumerate(diagonal)})
    assert _eliminate(mat) == (expected, [])
    assert determinantal_factors(mat) == expected


def test_snf_of_many_disjoint_non_unit_rows():
    n = 4000
    mat = int_matrix(n, 2 * n, {(r, c): 2 for r in range(n) for c in (2 * r, 2 * r + 1)})
    assert _eliminate(mat) == ([2] * n, [])


def test_snf_column_vector():
    mat = from_rows([[1], [1]])
    assert _eliminate(mat)[0] == determinantal_factors(mat) == [1]


def test_snf_empty_and_zero():
    for mat in (zeros(0, 3), zeros(3, 0), zeros(2, 2)):
        assert _eliminate(mat)[0] == determinantal_factors(mat) == []


def test_snf_random_matrices_seeded():
    rng = random.Random(20240)
    for _ in range(60):
        m = rng.randint(0, 8)
        n = rng.randint(0, 8)
        mat = from_rows([[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)], n)
        assert _eliminate(mat)[0] == determinantal_factors(mat)


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
    assert _eliminate(mat)[0] == determinantal_factors(mat)


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
                factors = _eliminate(block)[0]
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
                    factors = _eliminate(block)[0]
                    assert factors == determinantal_factors(block), (G, variant)
                    blocks += 1
                    with_factor_2 += 2 in factors
    assert blocks == 6025
    assert with_factor_2 == 9


def test_unit_rows_stop_at_the_first_non_unit_pick():
    # d^1 d^0 = 0. On d^0 the pivot 2 is picked first, and the remainder 3 mod 2 then
    # makes a unit pivot on row 1. d^0 restricted to row 1 and column 0 is (3), no
    # unit, so row 1 is not reported: left out as a column of d^1, it would turn the
    # factors [1, 1] into [1, 3].
    d0 = from_rows([[0], [3], [2]])
    d1 = from_rows([[-2, -2, 3], [-1, -2, 3], [1, -2, 3]])
    assert matmul(d1, d0).is_zero()
    assert _eliminate(d0) == ([1], [])
    assert _eliminate(d1)[0] == [1, 1]
    assert _eliminate(d1, frozenset({1}))[0] == [1, 3]


def test_unit_steps_keep_the_pivot_order_seeded():
    # Sparse blocks up to 8 x 8, entries in {+-1, +-2, +-3}; every third one draws from
    # {+-2, +-3} only, so its first pick is not a unit and later units stand on
    # remainders, as in the column (0, 3, 2). The reported unit rows are the rows of
    # the leading unit picks of the pivot rule replayed on the whole matrix
    # (`pivot_picks`), and the factors are the determinantal divisor quotients.
    rng = random.Random(2626)
    filled = late = non_unit_first = 0
    for t in range(600):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        values = [2, -2, 3, -3] if t % 3 == 0 else [1, -1, 2, -2, 3, -3]
        entries = {(r, c): rng.choice(values) for r in range(m) for c in range(n)}
        mat = int_matrix(m, n, {pos: x for pos, x in entries.items() if rng.random() < 0.35})
        picks = pivot_picks(mat)
        leading = list(itertools.takewhile(lambda pick: abs(pick[0]) == 1, picks))
        factors, unit_rows = _eliminate(mat)
        assert factors == determinantal_factors(mat), to_rows(mat)
        assert unit_rows == [r for _, r, _ in leading], to_rows(mat)
        if picks and not leading:
            assert unit_rows == []
            non_unit_first += 1
        # a unit pick on an entry that earlier steps filled in
        filled += sum(abs(p) == 1 and was_zero for p, _, was_zero in picks)
        # a unit pick after the first non-unit pick
        late += sum(abs(p) == 1 for p, _, _ in picks[len(leading) :])
    assert (filled, late, non_unit_first) == (64, 480, 261)


def test_unit_rows_can_be_skipped_in_the_next_differential_seeded():
    # Random pairs with d^1 d^0 = 0, the rows of d^1 integer combinations of a basis
    # of the left kernel of d^0. Leaving out, as columns of d^1, every row on which
    # d^0 finalised a unit pivot changes the factors of d^1 in 920 of these 4,000
    # pairs; leaving out only the rows `_eliminate` reports (3,073 pairs skip some)
    # changes none.
    rng = random.Random(1717)
    values = [0, 0, 1, -1, 2, -2, 3, -3]
    pairs = skipping = 0
    while pairs < 4000:
        m, n = rng.randint(1, 5), rng.randint(1, 4)
        d0 = from_rows([[rng.choice(values) for _ in range(n)] for _ in range(m)], n)
        transpose = int_matrix(n, m, {(c, r): v for r, c, v in d0.triplets()})
        kernel = to_rows(rank_and_kernel(transpose)[1])  # m x (nullity), m >= 1
        if not kernel[0]:
            continue
        rows = []
        for _ in range(rng.randint(1, 4)):
            coefficients = [rng.randint(-2, 2) for _ in kernel[0]]
            rows.append([sum(a * x for a, x in zip(coefficients, row)) for row in kernel])
        d1 = from_rows(rows, m)
        assert matmul(d1, d0).is_zero()
        unit_rows = _eliminate(d0)[1]
        reduced = _eliminate(d1, frozenset(unit_rows))[0]
        assert reduced == _eliminate(d1)[0], (to_rows(d0), to_rows(d1))
        pairs += 1
        skipping += bool(unit_rows)
    assert skipping == 3073


def _eliminations(cx, monkeypatch):
    """(block, skip, factors) of every block `cohomology(cx)` eliminates."""
    calls = []

    def recording(block, skip=frozenset()):
        factors, unit_rows = _eliminate(block, skip)
        calls.append((block, skip, factors))
        return factors, unit_rows

    with monkeypatch.context() as patch:
        patch.setattr(homology, "_eliminate", recording)
        cohomology(cx)
    return calls


def test_carried_skips_keep_the_factors_of_every_block(corpus, complex_of, monkeypatch):
    # Route oracle for the columns `cohomology` carries up from the block below: each
    # block's factors without them equal its factors with every column, and, where the
    # reduced block is at most 8 x 8, the determinantal divisor quotients of the whole
    # block. Corpus in both variants, K4, cycle8, K5 tutte and an edge shuffle of each;
    # the widest such block is the 8 x 56 block of cycle8 tutte (48 columns skipped).
    rng = random.Random(88)
    k4, k5 = (Multigraph(n, tuple(itertools.combinations(range(n), 2))) for n in (4, 5))
    named = [(k4, "yamada"), (k4, "tutte"), (cycle_graph(8), "tutte"), (k5, "tutte")]
    for G, variant in list(named):
        named.append((permute_edges(G, rng.sample(range(G.edge_count), G.edge_count)), variant))
    skipped = small = 0
    for G, variant in [(G, v) for G in corpus for v in VARIANTS] + named:
        for block, skip, factors in _eliminations(complex_of(G, variant), monkeypatch):
            assert factors == _eliminate(block)[0], (G, variant)
            skipped += len(skip)
            reduced_small = block.rows <= 8 and block.cols - len(skip) <= 8
            if reduced_small and not block.is_zero():
                assert factors == determinantal_factors(block), (G, variant)
                small += 1
    assert (skipped, small) == (74308, 7003)


def test_carried_skips_cut_the_nonzeros_that_enter_elimination(monkeypatch, complex_of):
    # K5 tutte: of the 34,500 block nonzeros, 22,349 enter elimination.
    cx = complex_of(Multigraph(5, tuple(itertools.combinations(range(5), 2))), "tutte")
    calls = _eliminations(cx, monkeypatch)
    nonzeros = sum(block.nnz() for block, _, _ in calls)
    entering = sum(c not in skip for block, skip, _ in calls for c in block.col_of)
    assert (nonzeros, entering) == (34500, 22349)


def test_pivot_queue_pushes_fewer_keys_than_nonzeros(monkeypatch, complex_of):
    # One heap key per changed row, not one per entry. On K5 tutte a queue keyed by
    # entry pushed 196,506 keys for the 34,500 nonzeros of the blocks; keyed by row,
    # with the columns carried across heights left out, 16,386: 6,618 initial keys
    # put in by one heapify and 9,768 pushes. A unit step pushes one key per row it
    # changes, as the general step does, so the pops, which follow the pivot order,
    # are those of the general step alone: 10,877.
    cx = complex_of(Multigraph(5, tuple(itertools.combinations(range(5), 2))), "tutte")
    nonzeros = sum(block.nnz() for level in cx.blocks for block in level.values())
    counts = {"heapify": 0, "heappush": 0, "heappop": 0}
    heapify, heappush, heappop = matrices.heapify, matrices.heappush, matrices.heappop

    def counting_heapify(heap):
        counts["heapify"] += len(heap)
        heapify(heap)

    def counting_heappush(heap, key):
        counts["heappush"] += 1
        heappush(heap, key)

    def counting_heappop(heap):
        counts["heappop"] += 1
        return heappop(heap)

    monkeypatch.setattr(matrices, "heapify", counting_heapify)
    monkeypatch.setattr(matrices, "heappush", counting_heappush)
    monkeypatch.setattr(matrices, "heappop", counting_heappop)
    cohomology(cx)
    assert counts == {"heapify": 6618, "heappush": 9768, "heappop": 10877}
    assert counts["heapify"] + counts["heappush"] < nonzeros


def test_kernel_basis():
    d = matrix_route.differential(build_complex(bigon(), "yamada"), 0)
    _, ker = rank_and_kernel(d)
    assert ker.cols == 2
    assert matmul(d, ker).is_zero()
    assert len(_eliminate(ker)[0]) == 2
    # everything is a cocycle for a zero map
    assert rank_and_kernel(zeros(0, 3))[1].cols == 3


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
                    block = zeros(0, len(idx)) if top else cx.blocks[i][jk]
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
        dims=cx.dims,
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
                    if contents(matmul(mats[i + 1], d_src[i]))
                    != contents(matmul(d_dst[i], mats[i]))
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


# The routes of yamada and of tutte cohomology are compared on these graphs
# and on two seeded edge shuffles of each: a loop, a parallel pair, a merge
# with a bystander component and an isolated vertex in MIXED; no vertex; a
# bouquet, whose D_0 is 0, so that its whole tutte table comes from the D_L;
# two components with Z/2 in D_0 each, which meet in the Kunneth Tor term.
ROUTE_GRAPHS = {
    "K4": Multigraph(4, tuple(itertools.combinations(range(4), 2))),
    "cycle6": cycle_graph(6),
    "cycle8": cycle_graph(8),
    "path6": tree_graph(6),
    "multiedge7": multiedge_graph(7),
    "mixed": Multigraph(5, ((0, 1), (1, 2), (2, 0), (2, 2), (1, 2))),
    "empty": Multigraph(0, ()),
    "point": Multigraph(1, ()),
    "bouquet4": bouquet_graph(4),
    "two_triangles": Multigraph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3))),
    "triangle_and_two_points": Multigraph(5, ((0, 1), (1, 2), (2, 0))),
    "cycle5_with_a_loop": Multigraph(5, cycle_graph(5).edges + ((3, 3),)),
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
    # Beyond the corpus, each class key of the route (b0, minor edges, |A|)
    # meets loops, parallel edges and isolated vertices in random positions.
    # The whole table is eliminated once per graph, as the table does not
    # depend on the edge order.
    kinds = {"loop": 0, "parallel": 0, "isolated": 0}
    for G in _random_multigraphs(60, 3131, max_edges=6):
        direct = cohomology(build_complex(G, "yamada"))
        for H in (G, _shuffled(G, 1), _shuffled(G, 2)):
            _same_table(yamada_cohomology(H), direct)
        kinds["loop"] += any(u == v for u, v in G.edges)
        kinds["parallel"] += len({tuple(sorted(edge)) for edge in G.edges}) < G.edge_count
        kinds["isolated"] += G.vertex_count > len({w for edge in G.edges for w in edge})
    assert kinds == {"loop": 32, "parallel": 22, "isolated": 28}


def _summand_level(G, states):
    """The L of the cycle summand D_L on `states`: their least b1, after
    asserting that they are exactly the states of G with b1 >= L."""
    def b1(mask, b0):
        return mask.bit_count() - G.vertex_count + b0

    L = min(b1(mask, b0) for mask, (_, b0) in states.items())
    up_set = cyclic_state_components(G)
    assert states == {m: s for m, s in up_set.items() if b1(m, s[1]) >= L}, (G, L)
    return L


def _eliminated(G):
    """The L and the table of each D_L that `tutte_cohomology(G)`
    eliminates, in order, each a chromatic complex on the states it was
    given."""
    eliminated = []
    whole = homology.cohomology

    def recording_cohomology(cx):
        assert cx.variant == "chromatic"
        eliminated.append((_summand_level(cx.graph, built[-1][1]), whole(cx)))
        return eliminated[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        built = record_builds(patch, homology)
        patch.setattr(homology, "cohomology", recording_cohomology)
        tutte_cohomology(G)
    return eliminated


@pytest.mark.parametrize("name", sorted(ROUTE_GRAPHS))
def test_the_tutte_route_makes_at_most_one_state_pass(name, monkeypatch):
    # The refusal reads the state histograms, and every D_L is built from one
    # enumeration of the up-set {b1 >= 1}, so no graph gets a pass over all
    # of its states; a forest has no D_L and gets no enumeration either.
    G = ROUTE_GRAPHS[name]
    passes, searches = [], []
    for module in (cube, multigraph):
        monkeypatch.setattr(
            module, "state_components", lambda H: passes.append(H) or state_components(H)
        )
    monkeypatch.setattr(
        homology,
        "cyclic_state_components",
        lambda H: searches.append(H) or cyclic_state_components(H),
    )
    tutte_cohomology(G)
    forest = G.edge_count - G.vertex_count + len(connected_components(G)) == 0
    assert passes == []
    assert searches == ([] if forest else [G])
    assert forest == (name in ("empty", "path6", "point"))


@pytest.mark.parametrize("name", sorted(ROUTE_GRAPHS))
def test_the_tutte_route_finds_components_and_histograms_once(name, monkeypatch):
    # The components of G are found once, for b1 and for the knight moves,
    # and each component's histogram is made once, for both the refusal and
    # the knight moves: G's own histogram at most once, when G is connected.
    G = ROUTE_GRAPHS[name]
    calls = {"connected_components": [], "state_histogram": []}
    for function in calls:
        real = getattr(cube, function)
        monkeypatch.setattr(
            cube, function, lambda H, real=real, seen=calls[function]: seen.append(H) or real(H)
        )
    tutte_cohomology(G)
    assert calls["connected_components"] == [G]
    components = connected_components(G)
    assert calls["state_histogram"] == components
    assert calls["state_histogram"].count(G) == (len(components) == 1)


def _index_from_scratch(cx, states=None):
    """Per height, the positions of the basis elements of each bidegree, as
    lists: the states of each height (those of `states` when given) in
    ascending order, back to back from position 0, each of rank 2^(j + k)
    with its slots from the components of its spanning subgraph
    (`connected_components`), and the bidegree of an element the bit
    counts of its low j bits and of the rest. Asserts on the way that the
    complex has exactly these states, offsets and sizes, and that b0 of
    each given state is right."""
    G = cx.graph
    out = [{} for _ in range(G.edge_count + 1)]
    at, per_height = [0] * (G.edge_count + 1), [0] * (G.edge_count + 1)
    for mask in sorted(range(1 << G.edge_count), key=lambda m: (m.bit_count(), m)):
        i = mask.bit_count()
        chosen = tuple(edge for e, edge in enumerate(G.edges) if mask >> e & 1)
        b0 = len(connected_components(Multigraph(G.vertex_count, chosen)))
        b1 = i - G.vertex_count + b0
        if states is not None and mask not in states:
            assert mask not in cx.state_offsets[i]
            continue
        assert states is None or states[mask][1] == b0
        j, k = {"yamada": (b0 + i, b1), "tutte": (b0, b1), "chromatic": (b0, 0)}[cx.variant]
        assert cx.state_offsets[i][mask] == at[i]
        assert cx.state_sizes[i][mask] == 1 << j + k
        for x in range(1 << j + k):
            jk = ((x & (1 << j) - 1).bit_count(), (x >> j).bit_count())
            out[i].setdefault(jk, []).append(at[i] + x)
        at[i] += 1 << j + k
        per_height[i] += 1
    assert [len(offsets) for offsets in cx.state_offsets] == per_height
    return out


def _assert_index_from_scratch(cx, states=None):
    expected = _index_from_scratch(cx, states)
    assert cx.height_count == len(expected)
    for i, index in enumerate(expected):
        level = cx.bidegree_index[i]
        assert all(a.typecode == matrices.INDEX_TYPECODE for a in level.values())
        assert {jk: list(a) for jk, a in level.items()} == index, (cx.graph, i)
        assert list(cx.dims_at(i).items()) == [(jk, len(a)) for jk, a in level.items()]
        assert cx.rank(i) == sum(map(len, index.values()))
        assert cx.bidegree_index[i] is level  # written once, then kept
        assert cx.bidegree_index[i - cx.height_count] is level


def test_the_index_written_on_read_matches_one_worked_out_from_scratch(corpus, complex_of):
    # Whole complexes of the corpus and ROUTE_GRAPHS in both variants, and of
    # K5 in the tutte one, and every D_L that the tutte route builds for them.
    K5 = Multigraph(5, tuple(itertools.combinations(range(5), 2)))
    pairs = [(G, v) for G in list(corpus) + list(ROUTE_GRAPHS.values()) for v in VARIANTS]
    with pytest.MonkeyPatch.context() as patch:
        summands = record_builds(patch, homology)
        for G, variant in pairs + [(K5, "tutte")]:
            _assert_index_from_scratch(complex_of(G, variant))
            if variant == "tutte":
                tutte_cohomology(G)
    assert len(summands) > 100
    for cx, states in summands:
        _summand_level(cx.graph, states)
        _assert_index_from_scratch(cx, states)


def _same_tutte_table(H, direct):
    """The recipe and Kunneth table of H against the k = 0 part of `direct`,
    the whole tutte table of H, then the route's whole table against it."""
    k0 = {(i, j): s for (i, j, k), s in direct.summands.items() if k == 0}
    components = [(C.vertex_count, state_histogram(C)) for C in connected_components(H)]
    assert _kunneth(components) == k0, H
    _same_table(tutte_cohomology(H), direct)


@pytest.mark.parametrize("name", sorted(ROUTE_GRAPHS))
def test_tutte_cohomology_matches_the_whole_complex(name, table_of):
    G = ROUTE_GRAPHS[name]
    for H in (G, _shuffled(G, 1), _shuffled(G, 2)):
        _same_tutte_table(H, table_of(H, "tutte"))


def test_tutte_cohomology_matches_the_whole_complex_on_the_corpus(corpus, table_of):
    for G in corpus:
        for H in (G, _shuffled(G, 1), _shuffled(G, 2)):
            _same_tutte_table(H, table_of(H, "tutte"))


def _random_multigraphs(count, seed, max_edges=9):
    """Seeded multigraphs with 1 to 7 vertices and at most `max_edges`
    edges, each endpoint drawn uniformly: loops, parallel edges, isolated
    vertices and several components all occur."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        V, E = rng.randint(1, 7), rng.randint(0, max_edges)
        out.append(Multigraph(V, tuple((rng.randrange(V), rng.randrange(V)) for _ in range(E))))
    return out


RANDOM_ROUTE_GRAPHS = _random_multigraphs(300, 2424)


def test_the_up_set_enumeration_equals_the_whole_pass_restricted_to_b1_at_least_1(corpus):
    # Labels and b0 alike, on graphs with no vertex, loops, parallel edges,
    # isolated vertices and several components.
    graphs = [Multigraph(0, ())] + list(corpus) + list(ROUTE_GRAPHS.values()) + RANDOM_ROUTE_GRAPHS
    kept = 0
    for G in graphs:
        expected = {
            mask: (labels, b0)
            for mask, (labels, b0) in enumerate(state_components(G))
            if mask.bit_count() - G.vertex_count + b0 >= 1
        }
        assert cyclic_state_components(G) == expected, G
        kept += len(expected)
    assert kept == 27_651


def test_the_up_set_enumeration_is_not_a_walk_of_every_state():
    # A cycle of n edges has one state with a cycle, E itself; the search
    # visits it and the n prefixes of it in edge order, where the whole cube
    # has 2^n states. A bouquet has every state but the empty one.
    for n in (3, 10, 40):
        G = cycle_graph(n)
        assert cyclic_state_components(G) == {(1 << n) - 1: ([0] * n, 1)}
        assert sum(1 for _ in multigraph._cycle_search(G)) == n + 1
    states = cyclic_state_components(bouquet_graph(13))
    assert sorted(states) == list(range(1, 1 << 13))
    assert set(map(tuple, (labels for labels, _ in states.values()))) == {(0,)}


def _route_up_sets(G):
    """Call `tutte_cohomology(G)` and assert that the L-th state map it
    hands the private builder, for L = 1, 2, ..., holds with each state
    every state with one more edge, and equals the states of the whole
    cube (`state_components`) with b1 >= L. Each map is checked before it
    is built. This is the precondition of `cube._build`, which does not
    check it. Returns the number of maps."""
    n, V = G.edge_count, G.vertex_count
    whole = list(enumerate(state_components(G)))
    given = []
    build = homology._build

    def checking_build(H, variant, states):
        L = len(given) + 1
        given.append(states)
        missing = [(m, m | 1 << e) for m in states for e in range(n) if m | 1 << e not in states]
        assert not missing, f"not closed under adding an edge: {missing[0]}, L = {L}, {G}"
        assert states == {m: s for m, s in whole if m.bit_count() - V + s[1] >= L}, (
            f"not the states with b1 >= {L}, {G}"
        )
        return build(H, variant, states)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(homology, "_build", checking_build)
        tutte_cohomology(G)
    return len(given)


def test_the_tutte_route_hands_the_builder_only_up_sets(corpus):
    # One map per L from 1 to b1(G), each an up-set: the oracle of the
    # route-side guarantee that `cube._build` relies on.
    graphs = list(corpus) + list(ROUTE_GRAPHS.values()) + RANDOM_ROUTE_GRAPHS
    maps = [_route_up_sets(G) for G in graphs]
    assert maps == [
        G.edge_count - G.vertex_count + len(connected_components(G)) for G in graphs
    ]


@pytest.mark.parametrize(
    "drop,fault",
    [("least", "not the states with b1 >= 1"), ("above_another", "not closed under adding an edge")],
)
def test_the_up_set_check_catches_a_dropped_state(drop, fault, monkeypatch):
    # K4's up-set {b1 >= 1}: its least states are the triangles and the
    # 4-cycles. Without a least state the map is still closed under adding
    # an edge, but not the whole up-set; without a triangle plus an edge,
    # the triangle lacks an up-neighbour.
    real = cyclic_state_components

    def dropping(H):
        states = real(H)
        ordered = sorted(states, key=lambda m: (m.bit_count(), m))
        if drop == "least":
            victim = ordered[0]
        else:
            victim = next(m for m in ordered if any(s != m and s & m == s for s in states))
        del states[victim]
        return states

    monkeypatch.setattr(homology, "cyclic_state_components", dropping)
    with pytest.raises(AssertionError, match=fault):
        _route_up_sets(ROUTE_GRAPHS["K4"])


@pytest.mark.parametrize("variant", VARIANTS)
def test_the_limit_of_every_route_is_the_exact_chain_rank(
    variant, corpus, monkeypatch, capsys, tmp_path
):
    # R is the chain rank of the built complex. Under a limit of R the builder
    # and the variant's cohomology route answer; under R - 1 they and `dump`
    # refuse, with "rank R", or "rank at least R" where the floor is tight.
    route = yamada_cohomology if variant == "yamada" else tutte_cohomology
    path = tmp_path / "graph.json"
    graphs = list(corpus) + _random_multigraphs(60, 37, max_edges=7)
    forms = {"rank": 0, "rank at least": 0}
    limit = cube.MAX_CHAIN_RANK
    for G in graphs:
        monkeypatch.setattr(cube, "MAX_CHAIN_RANK", limit)
        R = sum(map(build_complex(G, variant).rank, range(G.edge_count + 1)))
        monkeypatch.setattr(cube, "MAX_CHAIN_RANK", R)
        build_complex(G, variant)
        route(G)
        monkeypatch.setattr(cube, "MAX_CHAIN_RANK", R - 1)
        messages = []
        for refused in (build_complex, lambda G, variant: route(G)):
            with pytest.raises(ValueError) as caught:
                refused(G, variant)
            messages.append(f"error: {caught.value}\n")
        path.write_text(json.dumps(to_json_dict(G)))
        assert run(["dump", "--variant", variant, "--input", str(path)]) == 1
        messages.append(capsys.readouterr().err)
        expected = {
            f"error: chain complex has {form} {R}, over the limit of {R - 1}\n": form
            for form in forms
        }
        assert messages[0] in expected and messages == [messages[0]] * 3, (G, messages)
        forms[expected[messages[0]]] += 1
    assert len(graphs) == 329 and all(forms.values()), forms


def test_tutte_cohomology_matches_the_whole_complex_on_seeded_random_multigraphs():
    # The whole table is eliminated once per graph, for its first shuffle; the
    # table does not depend on the edge order (check_permutation_invariance).
    kinds = {"loop": 0, "disconnected": 0}
    for G in RANDOM_ROUTE_GRAPHS:
        shuffles = (_shuffled(G, 1), _shuffled(G, 2))
        direct = cohomology(build_complex(shuffles[0], "tutte"))
        for H in shuffles:
            _same_tutte_table(H, direct)
        kinds["loop"] += any(u == v for u, v in G.edges)
        kinds["disconnected"] += len(connected_components(G)) > 1
    assert kinds == {"loop": 191, "disconnected": 155}


def _thin_split(G, L, table):
    """Assert that H(D_L) of the connected graph G is thin and return its
    (pairs, knight moves): on the diagonals i + j = V-1+L (lower) and V+L
    (upper), only Z/2 torsion, all of it upper, and free ranks that split
    into pairs Z(i,j) + Z(i,j+1) and knight moves Z(i,j) + Z/2(i+1,j-1) +
    Z(i+1,j-2), with the Z/2 of each height those of the knight moves one
    height down. Working up from i = 0 the free ranks force the split: the
    lower free rank of height i is the knight moves ending there plus the
    pairs, and its upper one the pairs plus the knight moves starting."""
    lower, upper = G.vertex_count - 1 + L, G.vertex_count + L
    for (i, j, k), s in table.summands.items():
        assert k == 0 and i + j in (lower, upper), (G, L, i, j)
        assert set(s.torsion) <= {2} and (not s.torsion or i + j == upper), (G, L, i, j)
    pairs = moves = ending = 0
    for i in range(table.height_count + 1):
        assert len(table.torsion(i, upper - i, 0)) == ending, (G, L, i)
        paired = table.free_rank(i, lower - i, 0) - ending
        ending = table.free_rank(i, upper - i, 0) - paired
        assert paired >= 0 and ending >= 0, (G, L, i)
        pairs += paired
        moves += ending
    assert ending == 0, (G, L)
    return pairs, moves


def test_every_cycle_summand_the_route_eliminates_is_thin(corpus):
    # Each D_L that `tutte_cohomology` builds and eliminates on a connected graph of
    # the corpus, ROUTE_GRAPHS or the seeded random multigraphs. The route builds
    # exactly D_1 ... D_b1(G), and never D_0.
    totals = [0, 0, 0]  # tables, pairs, knight moves
    graphs = list(corpus) + list(ROUTE_GRAPHS.values()) + RANDOM_ROUTE_GRAPHS
    for G in graphs:
        eliminated, b0 = _eliminated(G), len(connected_components(G))
        assert [L for L, _ in eliminated] == list(range(1, G.edge_count - G.vertex_count + b0 + 1))
        if b0 != 1:
            continue
        for L, summand_table in eliminated:
            pairs, moves = _thin_split(G, L, summand_table)
            totals = [totals[0] + 1, totals[1] + pairs, totals[2] + moves]
    assert totals == [781, 6553, 192]


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

    def recording_tutte_cohomology(minor):
        memo[minor] = tutte_cohomology(minor)
        return memo[minor]

    monkeypatch.setattr(homology, "tutte_cohomology", recording_tutte_cohomology)
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
    monkeypatch.setattr(homology, "tutte_cohomology", lambda minor: tables[minor.edge_count])
    table = yamada_cohomology(bigon())
    assert table.height_count == 3
    assert table.summands == {
        (2, 2, 0): Summand(2, (2, 4, 4, 12, 12)),
        (2, 2, 1): Summand(0, (2,)),
    }


@pytest.mark.parametrize("name", sorted(ROUTE_GRAPHS))
def test_the_routes_normalise_torsion_only_where_there_is_some(name, monkeypatch, table_of):
    # Both routes split a summand into prime powers only when it has
    # torsion, and the tally turns prime powers back into invariant factors
    # only for a key that some torsion reached: one call per torsion key of
    # each table the tally makes, the minors' tables included.
    G = ROUTE_GRAPHS[name]
    split, joined, tallied = [], [], []
    real_split, real_join, real_table = homology.prime_powers, homology.invariant_factors, homology._Tally.table

    def table(self, variant, height_count):
        tallied.append(real_table(self, variant, height_count))
        return tallied[-1]

    monkeypatch.setattr(homology, "prime_powers", lambda t: split.append(t) or real_split(t))
    monkeypatch.setattr(homology, "invariant_factors", lambda p: joined.append(p) or real_join(p))
    monkeypatch.setattr(homology._Tally, "table", table)
    for route, variant in ((tutte_cohomology, "tutte"), (yamada_cohomology, "yamada")):
        split.clear(), joined.clear(), tallied.clear()
        table = route(G)
        _same_table(table, table_of(G, variant))
        assert all(split) and all(joined)
        assert len(joined) == sum(bool(s.torsion) for t in tallied for s in t.summands.values())
        has_torsion = any(s.torsion for s in table.summands.values())
        assert bool(split) == bool(joined) == has_torsion
        # the torsion-free graphs of the list make no call at all
        assert has_torsion == (name not in ("bouquet4", "empty", "multiedge7", "path6", "point"))
