import itertools
import random
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphhom.matrices as matrices
from graphhom.cube import build_complex, graded_euler, phi_psi
from graphhom.homology import (
    Summand,
    cohomology,
    induced_map_ranks,
    kernel_basis,
    smith_normal_form,
    verify_snf,
)
from graphhom.invariants import g_polynomials
from graphhom.laurent import BivariateLaurent
from graphhom.matrices import IntMatrix, TripletMatrix, _eliminate, rank
from graphhom.multigraph import Multigraph, bigon, build, cycle_graph, tree_graph, triangle

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


def _rank_over_q(mat):
    """Reference rank: Gaussian elimination over the rationals."""
    a = [[Fraction(v) for v in row] for row in mat.to_rows()]
    r = 0
    for c in range(mat.cols):
        piv = next((i for i in range(r, mat.rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(r + 1, mat.rows):
            f = a[i][c] / a[r][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


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
    res = smith_normal_form(IntMatrix.identity(3))
    assert res.d == IntMatrix.identity(3)
    assert res.invariant_factors == (1, 1, 1)


def test_snf_divisibility_example():
    mat = IntMatrix.from_rows([[2, 4], [6, 8]])
    res = smith_normal_form(mat)
    verify_snf(mat, res)
    assert res.invariant_factors == (2, 4)


def test_snf_column_vector():
    mat = IntMatrix.from_rows([[1], [1]])
    res = smith_normal_form(mat)
    verify_snf(mat, res)
    assert res.d == IntMatrix(2, 1, {(0, 0): 1})


def test_snf_empty_and_zero():
    for mat in (IntMatrix.zeros(0, 3), IntMatrix.zeros(3, 0), IntMatrix.zeros(2, 2)):
        res = smith_normal_form(mat)
        verify_snf(mat, res)
        assert res.invariant_factors == ()


def test_snf_random_matrices_seeded():
    rng = random.Random(20240)
    for _ in range(60):
        m = rng.randint(0, 8)
        n = rng.randint(0, 8)
        mat = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)], n
        )
        res = smith_normal_form(mat)
        verify_snf(mat, res)
        assert res.rank == rank(mat) == _rank_over_q(mat)


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
    return IntMatrix.from_rows(dense, n)


@settings(max_examples=150, deadline=None)
@given(sparse_unit_heavy_matrices())
def test_snf_property_on_sparse_unit_heavy_matrices(mat):
    res = smith_normal_form(mat)
    verify_snf(mat, res)
    assert list(res.invariant_factors) == _eliminate(mat)[0]
    assert rank(mat) == _rank_over_q(mat)


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


def test_verify_snf_catches_forgeries():
    mat = IntMatrix.from_rows([[2, 0], [0, 2]])
    good = smith_normal_form(mat)
    bad = type(good)(d=IntMatrix.from_rows([[1, 0], [0, 4]]), u=good.u, v=good.v)
    with pytest.raises(ValueError):
        verify_snf(mat, bad)


def test_kernel_basis():
    cx = build_complex(bigon(), "yamada")
    ker = kernel_basis(cx.differentials[0])
    assert ker.cols == 2
    assert (cx.differentials[0] @ ker).is_zero()
    assert rank(ker) == 2
    # everything is a cocycle for a zero map
    assert kernel_basis(IntMatrix.zeros(0, 3)).cols == 3


def test_rank_nullity_per_block():
    for G in (bigon(), triangle()):
        cx = build_complex(G, "yamada")
        for i in range(cx.height_count - 1):
            for jk, idx in cx.bidegree_index[i].items():
                block = cx.block(i, jk)
                assert len(idx) == rank(block) + kernel_basis(block).cols


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
                jk: TripletMatrix(
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


def test_induced_map_ranks_for_phi(complex_of):
    cx_t, cx_y = complex_of(bigon(), "tutte"), complex_of(bigon(), "yamada")
    ranks = induced_map_ranks(cx_t, cx_y, phi_psi(cx_t, cx_y)[0])
    assert ranks == {(0, 1, 0): 1, (0, 2, 0): 1, (2, 0, 1): 1, (2, 1, 1): 1}


def test_induced_composition_is_identity_on_tutte(complex_of):
    cx_t = complex_of(bigon(), "tutte")
    phi, psi = phi_psi(cx_t, complex_of(bigon(), "yamada"))
    comp = [q @ p for q, p in zip(psi, phi)]
    ranks = induced_map_ranks(cx_t, cx_t, comp)
    table = cohomology(cx_t)
    assert ranks == {key: s.free_rank for key, s in table.summands.items() if s.free_rank}


def test_induced_map_ranks_zero_map():
    cx = build_complex(bigon(), "tutte")
    zero = [IntMatrix.zeros(cx.rank(i), cx.rank(i)) for i in range(cx.height_count)]
    assert induced_map_ranks(cx, cx, zero) == {}


def test_induced_map_ranks_rejects_non_chain_maps():
    cx = build_complex(bigon(), "tutte")
    # identity matrices at every height do not commute with this differential
    fake = [IntMatrix.identity(cx.rank(i)) for i in range(cx.height_count)]
    fake[1] = IntMatrix(cx.rank(1), cx.rank(1), {(0, 0): 1})
    with pytest.raises(ValueError):
        induced_map_ranks(cx, cx, fake)
    with pytest.raises(ValueError):
        induced_map_ranks(cx, cx, fake[:2])


def test_induced_map_ranks_rejects_a_map_that_moves_the_bidegree():
    # one height holding bidegrees (0,0) and (1,0), no square to commute:
    # only the bidegree check sees that the map sends (1,0) into (0,0)
    cx = build_complex(build(1, []), "tutte")
    with pytest.raises(ValueError, match="bidegree"):
        induced_map_ranks(cx, cx, [IntMatrix(2, 2, {(0, 1): 1})])
