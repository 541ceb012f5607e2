import random

import pytest

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
from graphhom.matrices import IntMatrix, rank
from graphhom.multigraph import bigon, build, tree_graph, triangle

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
        assert res.rank == rank(mat)


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
    doubled = [m + m for m in cx.differentials]
    synthetic = type(cx)(
        variant=cx.variant,
        graph=cx.graph,
        bidegrees=cx.bidegrees,
        state_offsets=cx.state_offsets,
        state_sizes=cx.state_sizes,
        differentials=doubled,
        bidegree_index=cx.bidegree_index,
        blocks=[
            {jk: block + block for jk, block in level.items()} for level in cx.blocks
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


def test_induced_map_ranks_for_phi():
    maps = phi_psi(bigon())
    ranks = induced_map_ranks(maps.tutte, maps.yamada, maps.phi)
    assert ranks == {(0, 1, 0): 1, (0, 2, 0): 1, (2, 0, 1): 1, (2, 1, 1): 1}


def test_induced_composition_is_identity_on_tutte():
    maps = phi_psi(bigon())
    comp = [psi @ phi for psi, phi in zip(maps.psi, maps.phi)]
    ranks = induced_map_ranks(maps.tutte, maps.tutte, comp)
    table = cohomology(maps.tutte)
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
