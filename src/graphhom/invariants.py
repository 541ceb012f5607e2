"""Deletion-contraction graph invariants.

Implements the two-variable state sum h(G; x, y) over spanning subgraphs,
its nonnegative rescaling g~ and the shifted polynomial g(t, w), the
five-coefficient invariant determined by (A, B, C, D, E), closed forms
for trees, bouquets, multi-edges and cycles, the classical
specializations (Tutte, chromatic, flow, Negami, and the state sum
itself), and a brute-force proper-coloring oracle.

The state sums and `eval_del_con` read only how many states have each
(|S|, b0), taken from `multigraph.state_histogram`, with b1 = |S| - |V|
+ b0. That count is a frontier transfer over the edges in an order of
its own choosing, since the counts do not depend on the order; its cost
grows with the frontier width of that order rather than with 2^|E|, and
each invariant is then one division-free sum over it. h and g~ are read
off the histogram term by term. `eval_del_con` sums on plain
`{(xexp, yexp): coeff}` dicts: each count scales the terms of one power
table entry by integer multiply-adds, there is one polynomial product
(`laurent._product`) per rank row or nullity column, and one
`BivariateLaurent` is built at the end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Literal

from .laurent import (
    ONE,
    X,
    Y,
    ZERO,
    BivariateLaurent,
    _product,
    geometric_sum,
    substitute_shift,
)
from .multigraph import Multigraph, state_histogram

FamilyKind = Literal["tree", "bouquet", "multiedge", "cycle"]
SpecializationName = Literal["tutte", "chromatic", "flow", "negami", "yamada"]

# Largest x-degree of g~ that `g_polynomials` agrees to shift. Substituting
# x = 1 + t expands a degree-d term into d + 1 terms with binomials of up
# to d bits, so the cost and the printed size of g grow like d^2. The
# degree is at most |E| + |V|, and each isolated vertex multiplies g~ by x.
MAX_G_DEGREE = 1024


@dataclass(frozen=True)
class InvariantParams:
    """The five coefficients of a deletion-contraction invariant.

    a, b weight the contraction/deletion branches; c is the one-vertex
    gluing unit (must be invertible, i.e. a +-monomial); d and e are the
    values on the one-edge tree and the one-loop graph.
    """

    a: BivariateLaurent
    b: BivariateLaurent
    c: BivariateLaurent
    d: BivariateLaurent
    e: BivariateLaurent

    def __post_init__(self) -> None:
        if not self.c.is_unit_monomial():
            raise ValueError("coefficient C must be a unit (+-x^a*y^b)")

    @property
    def c_inverse(self) -> BivariateLaurent:
        return self.c.inverse()


def yamada_state_sum(G: Multigraph) -> BivariateLaurent:
    """h(G; x, y): sum over S of (-x)^(|S|-|E|) x^b0([G:S]) y^b1([G:S])."""
    return _signed_state_sum(G, G.edge_count)


def g_polynomials(G: Multigraph) -> tuple[BivariateLaurent, BivariateLaurent]:
    """(g~, g): the (-x)^|E| rescaling of h, and its value at (1+t, 1+w).

    g~ = h * (-x)^|E| = sum over S of (-1)^|S| x^(|S|+b0) y^b1 has
    nonnegative exponents by construction; a histogram that breaks this
    raises RuntimeError. Raises ValueError, before shifting, when the
    x-degree of g~ is over `MAX_G_DEGREE`.
    """
    g_tilde = _signed_state_sum(G, 0)
    if g_tilde.has_negative_exponents():
        raise RuntimeError("g~ has a negative exponent: the state histogram is inconsistent")
    degree = max((a for a, _, _ in g_tilde.terms()), default=0)
    if degree > MAX_G_DEGREE:
        raise ValueError(f"g~ has x-degree {degree}, over the limit of {MAX_G_DEGREE}")
    return g_tilde, substitute_shift(g_tilde)


def _signed_state_sum(G: Multigraph, m: int) -> BivariateLaurent:
    """Sum over S of (-x)^(|S|-m) x^b0 y^b1: h for m = |E|, g~ for m = 0."""
    V = G.vertex_count
    out: dict[tuple[int, int], int] = {}
    for (size, b0), count in state_histogram(G).items():
        key = (size - m + b0, size - V + b0)
        out[key] = out.get(key, 0) + (-count if (size - m) % 2 else count)
    return BivariateLaurent._adopt(out)


def eval_del_con(G: Multigraph, params: InvariantParams) -> BivariateLaurent:
    """Deletion-contraction value of G under the given coefficients.

    The value f is fixed by its recursion on any edge e: a*f(G/e) +
    b*f(G-e) for an ordinary edge, c*e*f(G-e) for a loop, c*d*f(G/e) for
    an isthmus, and c^(-|V|) for a graph with no edges (a single vertex
    must be c^(-1) for consistency with the one-edge base cases, and f is
    multiplicative over disjoint unions). It is one sum over the states
    (Brylawski, Trans. AMS 1972; Oxley and Welsh, 1979):

        f(G) = c^(-k) * sum over S of a^r(S) (cd - a)^(r(E) - r(S))
               * b^(|E| - |S| - r(E) + r(S)) (ce - b)^(|S| - r(S))

    with r(S) = |V| - b0([G:S]) and k = b0(G). Since r(E) - r(S) <=
    |E| - |S|, no exponent is negative and only c is inverted. Proof:
    split the sum on whether S holds e. For a loop, r does not see e, and
    the halves are (ce - b) and b times the sum for G - e, together ce
    times it. For an isthmus the halves are a and (cd - a) times the sum
    for G/e, together cd times it. For an ordinary edge they are a times
    the sum for G/e and b times the sum for G - e. With no edges only
    S = {} is left, worth c^(-|V|).

    The summand depends on S only through i = b0 - k and j = b1, so the
    sum is taken over `state_histogram`:
    sum_i a^(r-i) (cd - a)^i * sum_j R_ij b^(nu-j) (ce - b)^j, where
    r = |V| - k, nu = |E| - r, and R_ij counts the states. Both power
    tables are built once, the counts go into the inner sums as integer
    multiply-adds, and there is one polynomial product per row i, or per
    column j (summing over i inside) when there are fewer columns.
    """
    hist = state_histogram(G)
    k = min(b0 for _, b0 in hist)  # b0 is least at S = E
    r = G.vertex_count - k
    nu = G.edge_count - r
    counts = [[0] * (nu + 1) for _ in range(r + 1)]
    for (size, b0), count in hist.items():
        counts[b0 - k][size - G.vertex_count + b0] = count
    a, b, c, d, e = params.a, params.b, params.c, params.d, params.e
    outer = _power_products(a, c * d - a, r)
    inner = _power_products(b, c * e - b, nu)
    if nu < r:
        counts = list(zip(*counts))
        outer, inner = inner, outer
    total: dict[tuple[int, int], int] = {}
    for row, factor in zip(counts, outer):
        part: dict[tuple[int, int], int] = {}
        for count, terms in zip(row, inner):
            if count:
                for key, coeff in terms.items():
                    part[key] = part.get(key, 0) + count * coeff
        for key, coeff in _product(factor, part).items():
            total[key] = total.get(key, 0) + coeff
    return BivariateLaurent._adopt(_product((params.c_inverse ** k)._terms, total))


def _power_products(p: BivariateLaurent, q: BivariateLaurent, n: int) -> list[dict]:
    """Term dicts of p^(n-i) q^i for i = 0, ..., n."""
    p_pows = [{(0, 0): 1}]
    q_pows = [{(0, 0): 1}]
    for _ in range(n):
        p_pows.append(_product(p_pows[-1], p._terms))
        q_pows.append(_product(q_pows[-1], q._terms))
    return [_product(p_pows[n - i], q_pows[i]) for i in range(n + 1)]


def closed_form(kind: FamilyKind, n: int, params: InvariantParams) -> BivariateLaurent:
    """Value on the named n-edge family, division-free.

    tree:      c^(n-1) d^n
    bouquet:   c^(n-1) e^n
    multiedge: b^(n-1) d + a e * sum_k b^k (c e)^(n-2-k)
    cycle:     a^(n-1) e + b d * sum_k a^k (c d)^(n-2-k)
    """
    if n < 1:
        raise ValueError("n must be positive")
    a, b, c, d, e = params.a, params.b, params.c, params.d, params.e
    if kind == "tree":
        return c ** (n - 1) * d ** n
    if kind == "bouquet":
        return c ** (n - 1) * e ** n
    if kind == "multiedge":
        return b ** (n - 1) * d + a * e * geometric_sum(b, c * e, n)
    if kind == "cycle":
        return a ** (n - 1) * e + b * d * geometric_sum(a, c * d, n)
    raise ValueError(f"unknown family {kind!r}")


def specialization(name: SpecializationName, negami_t: int = 1) -> InvariantParams:
    """Coefficient row of a classical invariant.

    The chromatic and flow rows read the engine's x variable as lambda.
    The Negami row has a third variable t; it is supported with t pinned
    to an integer in {1, -1} (C = 1/t must stay invertible over integer
    coefficients).
    """
    if name == "tutte":
        return InvariantParams(ONE, ONE, ONE, X, Y)
    if name == "chromatic":
        return InvariantParams(
            BivariateLaurent.from_int(-1),
            ONE,
            X.inverse(),
            X * X - X,
            ZERO,
        )
    if name == "flow":
        return InvariantParams(ONE, BivariateLaurent.from_int(-1), ONE, ZERO, X - 1)
    if name == "negami":
        if negami_t not in (1, -1):
            raise ValueError("negami requires t in {1, -1}: C = 1/t must be a unit")
        t = negami_t
        # D = t(x + t*y) = t*x + y and C = 1/t = t, using t^2 = 1.
        return InvariantParams(
            X,
            Y,
            BivariateLaurent.from_int(t),
            t * X + Y,
            t * X + t * Y,
        )
    if name == "yamada":
        return InvariantParams(ONE, -X.inverse(), X.inverse(), ZERO, X * Y - 1)
    raise ValueError(f"unknown specialization {name!r}")


def chromatic_count(G: Multigraph, lam: int) -> int:
    """Brute-force number of proper colorings with lam colors.

    Independent oracle for the chromatic row; limited to lam <= 8 and
    |V| <= 8.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if lam > 8 or G.vertex_count > 8:
        raise ValueError("brute force limited to lambda <= 8 and |V| <= 8")
    if any(u == v for u, v in G.edges):
        return 0
    count = 0
    for coloring in itertools.product(range(lam), repeat=G.vertex_count):
        if all(coloring[u] != coloring[v] for u, v in G.edges):
            count += 1
    return count
