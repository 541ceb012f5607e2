import pytest

from graphhom.matrices import IntMatrix, det, rank


def test_construction_drops_zeros_and_validates_bounds():
    m = IntMatrix(2, 3, {(0, 0): 1, (1, 2): 0})
    assert m.sorted_entries() == [(0, 0, 1)]
    with pytest.raises(ValueError):
        IntMatrix(2, 2, {(2, 0): 1})
    with pytest.raises(ValueError):
        IntMatrix(-1, 2)


def test_equality_and_identity():
    assert IntMatrix.identity(3) == IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert IntMatrix.zeros(2, 2) != IntMatrix.zeros(2, 3)


def test_matmul():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[5, 6], [7, 8]])
    assert (a @ b).to_rows() == [[19, 22], [43, 50]]
    with pytest.raises(ValueError):
        a @ IntMatrix.zeros(3, 1)


def test_matmul_with_empty_shapes():
    a = IntMatrix.zeros(0, 3)
    b = IntMatrix.zeros(3, 2)
    assert (a @ b).shape == (0, 2)


def test_add_sub_neg():
    a = IntMatrix.from_rows([[1, -2], [0, 5]])
    assert (a + (-a)).is_zero()
    assert (a - a).is_zero()
    assert (-a).to_rows() == [[-1, 2], [0, -5]]


def test_hstack_and_submatrix():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[5], [6]])
    assert a.hstack(b).to_rows() == [[1, 2, 5], [3, 4, 6]]
    sub = a.submatrix([1], [0, 1])
    assert sub.to_rows() == [[3, 4]]
    with pytest.raises(ValueError):
        a.hstack(IntMatrix.zeros(3, 1))


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
    assert rank(IntMatrix.from_rows(rows)) == expected


def test_rank_empty():
    assert rank(IntMatrix.zeros(0, 5)) == 0
    assert rank(IntMatrix.zeros(5, 0)) == 0


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
    assert det(IntMatrix.from_rows(rows)) == expected


def test_det_empty_and_nonsquare():
    assert det(IntMatrix.zeros(0, 0)) == 1
    with pytest.raises(ValueError):
        det(IntMatrix.zeros(2, 3))


def test_immutability():
    a = IntMatrix.identity(2)
    with pytest.raises(AttributeError):
        a.rows = 3
