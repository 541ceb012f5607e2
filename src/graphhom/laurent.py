"""Sparse bivariate Laurent polynomials over the integers.

The one value domain for every polynomial in the package: state sums,
deletion-contraction invariants, graded dimensions and Euler
characteristics. Coefficients are Python ints (arbitrary precision);
exponents may be negative. The variable pair is written (x, y) and read
as (t, w) after the shift of variables, depending on context.

Canonical form: no zero coefficients, one entry per exponent pair, and
serialization in descending lexicographic order of (x-exponent,
y-exponent), leading term first.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Mapping, Union

Scalar = Union[int, "BivariateLaurent"]


class BivariateLaurent:
    """Immutable exact polynomial in x^{±1}, y^{±1} with int coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], int] | None = None) -> None:
        cleaned: dict[tuple[int, int], int] = {}
        if terms:
            for (a, b), c in terms.items():
                if c:
                    cleaned[(int(a), int(b))] = int(c)
        object.__setattr__(self, "_terms", cleaned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("BivariateLaurent is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "BivariateLaurent":
        return cls()

    @classmethod
    def one(cls) -> "BivariateLaurent":
        return cls({(0, 0): 1})

    @classmethod
    def from_int(cls, c: int) -> "BivariateLaurent":
        return cls({(0, 0): c})

    @classmethod
    def monomial(cls, coeff: int, xexp: int, yexp: int) -> "BivariateLaurent":
        return cls({(xexp, yexp): coeff})

    # -- ring structure ----------------------------------------------------

    @staticmethod
    def _coerce(other: Scalar) -> "BivariateLaurent":
        if isinstance(other, BivariateLaurent):
            return other
        if isinstance(other, int):
            return BivariateLaurent.from_int(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other: Scalar) -> "BivariateLaurent":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            out[key] = out.get(key, 0) + c
        return BivariateLaurent(out)

    __radd__ = __add__

    def __neg__(self) -> "BivariateLaurent":
        return BivariateLaurent({key: -c for key, c in self._terms.items()})

    def __sub__(self, other: Scalar) -> "BivariateLaurent":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "BivariateLaurent":
        return self._coerce(other) - self

    def __mul__(self, other: Scalar) -> "BivariateLaurent":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                key = (a1 + a2, b1 + b2)
                out[key] = out.get(key, 0) + c1 * c2
        return BivariateLaurent(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "BivariateLaurent":
        if not isinstance(n, int):
            raise TypeError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        result = BivariateLaurent.one()
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_zero(self) -> bool:
        return not self._terms

    def is_unit_monomial(self) -> bool:
        """True for +-x^a y^b, the invertible elements of the ring."""
        if len(self._terms) != 1:
            return False
        return abs(next(iter(self._terms.values()))) == 1

    def inverse(self) -> "BivariateLaurent":
        if not self.is_unit_monomial():
            raise ValueError("negative power of a non-unit: only +-x^a*y^b invert")
        ((a, b), c) = next(iter(self._terms.items()))
        return BivariateLaurent({(-a, -b): c})

    # -- queries -----------------------------------------------------------

    def coefficient(self, xexp: int, yexp: int) -> int:
        return self._terms.get((xexp, yexp), 0)

    def terms(self) -> list[tuple[int, int, int]]:
        """(xexp, yexp, coeff) triples in canonical (descending) order."""
        return [(a, b, self._terms[(a, b)]) for (a, b) in sorted(self._terms, reverse=True)]

    def has_negative_exponents(self) -> bool:
        return any(a < 0 or b < 0 for (a, b) in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = BivariateLaurent.from_int(other)
        if not isinstance(other, BivariateLaurent):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- output ------------------------------------------------------------

    def to_string(self, xname: str = "x", yname: str = "y") -> str:
        if not self._terms:
            return "0"
        parts: list[str] = []
        for a, b, c in self.terms():
            factors = []
            if a:
                factors.append(xname if a == 1 else f"{xname}^{a}")
            if b:
                factors.append(yname if b == 1 else f"{yname}^{b}")
            mono = "*".join(factors)
            mag = abs(c)
            if not mono:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)

    def __str__(self) -> str:
        return self.to_string()

    def __repr__(self) -> str:
        return f"BivariateLaurent({self.to_string()!r})"

    def to_json_dict(self) -> dict:
        return {"terms": [{"x": a, "y": b, "c": str(c)} for a, b, c in self.terms()]}

    @classmethod
    def from_json_dict(cls, data: object) -> "BivariateLaurent":
        if not isinstance(data, dict) or "terms" not in data:
            raise ValueError("polynomial JSON must be an object with a 'terms' array")
        out: dict[tuple[int, int], int] = {}
        for item in data["terms"]:
            a, b, c = item["x"], item["y"], item["c"]
            out[(int(a), int(b))] = out.get((int(a), int(b)), 0) + int(c)
        return cls(out)


X = BivariateLaurent.monomial(1, 1, 0)
Y = BivariateLaurent.monomial(1, 0, 1)
ONE = BivariateLaurent.one()
ZERO = BivariateLaurent.zero()


def substitute_shift(p: BivariateLaurent) -> BivariateLaurent:
    """p(1+t, 1+w), exact, via binomial expansion.

    Requires nonnegative exponents; the result is read in the variables
    (t, w).
    """
    if p.has_negative_exponents():
        raise ValueError("substitution x=1+t, y=1+w needs nonnegative exponents")
    out: dict[tuple[int, int], int] = {}
    for a, b, c in p.terms():
        for i in range(a + 1):
            ci = comb(a, i)
            for j in range(b + 1):
                key = (i, j)
                out[key] = out.get(key, 0) + c * ci * comb(b, j)
    return BivariateLaurent(out)


def evaluate(p: BivariateLaurent, x0: int | Fraction, y0: int | Fraction) -> Fraction:
    """Exact rational value p(x0, y0)."""
    x0 = Fraction(x0)
    y0 = Fraction(y0)
    total = Fraction(0)
    for a, b, c in p.terms():
        if (a < 0 and x0 == 0) or (b < 0 and y0 == 0):
            raise ZeroDivisionError("evaluation at 0 with a negative exponent")
        total += c * x0 ** a * y0 ** b
    return total


def geometric_sum(a: BivariateLaurent, b: BivariateLaurent, n: int) -> BivariateLaurent:
    """Sum of a^k * b^(n-2-k) for k = 0..n-2; equals (a^(n-1) - b^(n-1)) / (a - b).

    Division-free form of the multi-edge and cycle fractions; returns 0
    for n = 1.
    """
    if n < 1:
        raise ValueError("n must be positive")
    total = ZERO
    a_pow = ONE
    b_pows = [ONE]
    for _ in range(n - 2):
        b_pows.append(b_pows[-1] * b)
    for k in range(n - 1):
        total = total + a_pow * b_pows[n - 2 - k]
        a_pow = a_pow * a
    return total
