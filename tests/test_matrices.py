from array import array

import pytest

from graphhom.cube import build_complex
from graphhom.matrices import IntMatrix, _eliminate
from graphhom.multigraph import bigon

from matrix_route import (
    contents,
    det,
    from_rows,
    identity,
    int_matrix,
    matmul,
    shape,
    to_rows,
    zeros,
)


def test_construction_drops_zeros_and_validates_bounds():
    m = int_matrix(2, 3, {(0, 0): 1, (1, 2): 0})
    assert m.sorted_entries() == [(0, 0, 1)]
    with pytest.raises(ValueError):
        int_matrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        int_matrix(-1, 2)


def test_equality_and_identity():
    assert contents(identity(3)) == contents(from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
    assert contents(zeros(2, 2)) != contents(zeros(2, 3))


def test_matmul():
    a = from_rows([[1, 2], [3, 4]])
    b = from_rows([[5, 6], [7, 8]])
    assert to_rows(matmul(a, b)) == [[19, 22], [43, 50]]
    with pytest.raises(ValueError):
        matmul(a, zeros(3, 1))


def test_matmul_with_empty_shapes():
    a = zeros(0, 3)
    b = zeros(3, 2)
    assert shape(matmul(a, b)) == (0, 2)


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([[1, 0], [0, 1]], 2),
        ([[1, 2], [2, 4]], 1),
        ([[0, 0], [0, 0]], 0),
        ([[2, 4, 6], [1, 2, 3], [0, 1, 1]], 2),
    ],
)
def test_rank(rows, expected):
    # the rank over Q is the number of nonzero invariant factors
    assert len(_eliminate(from_rows(rows))[0]) == expected


def test_rank_empty():
    assert _eliminate(zeros(0, 5))[0] == []
    assert _eliminate(zeros(5, 0))[0] == []


@pytest.mark.parametrize(
    "rows,expected",
    [
        ([[2, 0], [0, 3]], 6),
        ([[1, 2], [3, 4]], -2),
        ([[0, 1], [1, 0]], -1),
        ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 0),
    ],
)
def test_det(rows, expected):
    assert det(from_rows(rows)) == expected


def test_det_empty_and_nonsquare():
    assert det(zeros(0, 0)) == 1
    with pytest.raises(ValueError):
        det(zeros(2, 3))


def test_immutability():
    a = identity(2)
    with pytest.raises(AttributeError):
        a.rows = 3


def test_from_triplets_reads_like_the_dict_form_and_refuses_bad_entries():
    def triplets(rows, cols, vals):
        return array("i", rows), array("i", cols), array("b", vals)

    m = IntMatrix.from_triplets(2, 3, *triplets([1, 0, 1], [2, 0, 0], [-1, 1, 2]))
    assert (m.nnz(), m.is_zero()) == (3, False)
    assert m.sorted_entries() == [(0, 0, 1), (1, 0, 2), (1, 2, -1)]
    assert to_rows(m) == [[1, 0, 0], [2, 0, -1]]
    assert contents(m) == contents(from_rows([[1, 0, 0], [2, 0, -1]]))
    assert _eliminate(m)[0] == _eliminate(from_rows(to_rows(m)))[0] == [1, 1]
    assert IntMatrix.from_triplets(0, 4, *triplets([], [], [])).is_zero()
    with pytest.raises(AttributeError):
        m.val_of = array("b")
    # every block of a built complex equals the dict-built matrix of its entries
    for level in build_complex(bigon(), "yamada").blocks:
        for b in level.values():
            entries = {(r, c): v for r, c, v in b.triplets()}
            assert contents(b) == contents(int_matrix(b.rows, b.cols, entries))
    for bad in (
        triplets([2], [0], [1]),
        triplets([-1], [0], [1]),
        triplets([0], [3], [1]),
        triplets([0], [-1], [1]),
        triplets([0], [0], [0]),
        triplets([0, 1], [0], [1]),
    ):
        with pytest.raises(ValueError):
            IntMatrix.from_triplets(2, 3, *bad)
