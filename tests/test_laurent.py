from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhom.laurent import (
    ONE,
    X,
    Y,
    ZERO,
    BivariateLaurent,
    evaluate,
    geometric_sum,
    substitute_shift,
)

P = BivariateLaurent

laurent_polys = st.dictionaries(
    st.tuples(st.integers(-2, 3), st.integers(-2, 3)),
    st.integers(-4, 4),
    max_size=4,
).map(P)

plain_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-4, 4),
    max_size=4,
).map(P)


def test_mul_example():
    assert (X - 1) * (X + 1) == P({(2, 0): 1, (0, 0): -1})


def test_pow_of_negative_inverse_monomial():
    assert (-X.inverse()) ** 2 == P({(-2, 0): 1})


def test_additive_inverse():
    p = P({(1, 2): 3, (-1, 0): -2})
    assert p + (-p) == ZERO
    assert (p + (-p)).is_zero()


def test_pow_negative_requires_unit():
    with pytest.raises(ValueError):
        (X + 1) ** -1
    with pytest.raises(ValueError):
        P({(1, 0): 2}) ** -1
    assert X ** -3 == P({(-3, 0): 1})


def test_substitute_shift_examples():
    # x^3*y - x^2 evaluated at (1+t, 1+w)
    shifted = substitute_shift(P({(3, 1): 1, (2, 0): -1}))
    assert shifted == P(
        {(1, 0): 1, (2, 0): 2, (3, 0): 1, (0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1}
    )
    assert substitute_shift(ONE) == ONE
    assert substitute_shift(X * Y - 1) == P({(1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_substitute_shift_rejects_negative_exponents():
    with pytest.raises(ValueError):
        substitute_shift(X.inverse())


def test_evaluate():
    assert evaluate(X * Y - 1, 2, 3) == 5
    assert evaluate(X.inverse(), 2, 0) == Fraction(1, 2)
    cubic = P({(3, 0): 1, (2, 0): -3, (1, 0): 2})  # x(x-1)(x-2)
    assert evaluate(cubic, 3, 0) == 6
    assert evaluate(ZERO, 5, 7) == 0
    with pytest.raises(ZeroDivisionError):
        evaluate(X.inverse(), 0, 1)


def test_geometric_sum_examples():
    assert geometric_sum(X, Y, 2) == ONE
    assert geometric_sum(X, Y, 3) == X + Y
    assert geometric_sum(X, P.from_int(2), 4) == P({(2, 0): 1, (1, 0): 2, (0, 0): 4})
    assert geometric_sum(X, Y, 1) == ZERO
    with pytest.raises(ValueError):
        geometric_sum(X, Y, 0)


@settings(max_examples=40, deadline=None)
@given(laurent_polys, laurent_polys, st.integers(1, 6))
def test_geometric_sum_telescopes(a, b, n):
    assert (a - b) * geometric_sum(a, b, n) == a ** (n - 1) - b ** (n - 1)


@settings(max_examples=60, deadline=None)
@given(laurent_polys, laurent_polys, laurent_polys)
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(plain_polys, plain_polys)
def test_shift_is_multiplicative(p, q):
    assert substitute_shift(p * q) == substitute_shift(p) * substitute_shift(q)


def test_canonical_string_order():
    assert str(P({(3, 1): 1, (2, 0): -1})) == "x^3*y - x^2"
    assert str(X * Y - 1) == "x*y - 1"
    assert str(P({(-1, 0): -1, (0, 0): 2})) == "2 - x^-1"
    assert str(ZERO) == "0"
    assert str(P({(0, 0): -3})) == "-3"
    assert (X * Y - 1).to_string("t", "w") == "t*w - 1"
    assert str(P({(0, 2): 2})) == "2*y^2"


def test_json_round_trip_and_order():
    p = P({(2, 0): -1, (3, 1): 1})
    data = p.to_json_dict()
    assert data == {"terms": [{"x": 3, "y": 1, "c": "1"}, {"x": 2, "y": 0, "c": "-1"}]}
    assert P.from_json_dict(data) == p
    with pytest.raises(ValueError):
        P.from_json_dict({"nope": []})


def test_int_coercion_and_equality():
    assert X * 0 == 0
    assert ONE == 1
    assert 2 * X == X + X
    assert 1 - X == -(X - 1)


def test_unit_monomial_detection():
    assert X.is_unit_monomial()
    assert (-X.inverse()).is_unit_monomial()
    assert not (2 * X).is_unit_monomial()
    assert not (X + Y).is_unit_monomial()
    assert not ZERO.is_unit_monomial()
