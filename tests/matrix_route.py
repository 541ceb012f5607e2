"""Matrix references kept in the tests.

The matrix-product route: global differentials and chain maps as
`IntMatrix`es, the reference for the target-array chain maps, so that
their oracles stay matrix products. And the references for elimination:
dense helpers, Bareiss determinants, one Gauss-Jordan reduction over
the rationals for rank and kernel, and the invariant factors from their
definition by determinantal divisors, independent of any pivot order.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from graphhom.matrices import IntMatrix


def differential(cx, i):
    """d^i: C^i -> C^(i+1) of `cx` in the global basis order, assembled from
    `BigradedComplex.nonzeros` (zero outside the stored heights)."""
    return IntMatrix(cx.rank(i + 1), cx.rank(i), {(r, c): v for r, c, v in cx.nonzeros(i)})


def map_matrix(targets, rows):
    """The 0/1 matrix with `rows` rows of a target array: column l holds a 1
    in row targets[l], or nothing when targets[l] is -1."""
    return IntMatrix(rows, len(targets), {(t, l): 1 for l, t in enumerate(targets) if t >= 0})


def identity(n):
    return IntMatrix(n, n, {(i, i): 1 for i in range(n)})


def from_rows(dense, cols=None):
    nrows = len(dense)
    if cols is None:
        cols = len(dense[0]) if nrows else 0
    if any(len(row) != cols for row in dense):
        raise ValueError("ragged rows")
    entries = {(r, c): v for r, row in enumerate(dense) for c, v in enumerate(row)}
    return IntMatrix(nrows, cols, entries)


def to_rows(mat):
    dense = [[0] * mat.cols for _ in range(mat.rows)]
    for r, c, v in mat.triplets():
        dense[r][c] = v
    return dense


def matmul(a, b):
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    rows_of_b = {}
    for r, c, v in b.triplets():
        rows_of_b.setdefault(r, []).append((c, v))
    out = {}
    for r, k, v in a.triplets():
        for c, w in rows_of_b.get(k, ()):
            out[(r, c)] = out.get((r, c), 0) + v * w
    return IntMatrix(a.rows, b.cols, out)


def det(mat):
    """Determinant by fraction-free (Bareiss) elimination."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    return _bareiss(to_rows(mat))


def _bareiss(a):
    """Determinant of the square list of rows `a`, which it overwrites."""
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def rank_and_kernel(mat):
    """The rank of `mat` over the rationals and a basis of its kernel, as
    the columns of an integer matrix, from one sparse Gauss-Jordan
    reduction of its rows: each non-pivot column c gives the kernel vector
    with 1 at c and minus column c of the reduced rows at their leading
    columns, cleared of denominators."""
    rows = {}
    for r, c, v in mat.triplets():
        rows.setdefault(r, {})[c] = v
    # leading column -> reduced row, scaled to a leading 1; the entries stay
    # ints until a leading entry other than 1 turns them into Fractions
    reduced = {}
    for row in rows.values():
        while row and min(row) in reduced:
            lead = min(row)
            _subtract(row, row[lead], reduced[lead])
        if row:
            lead = min(row)
            f = row[lead]
            reduced[lead] = row if f == 1 else {c: Fraction(x, f) for c, x in row.items()}
    for lead in sorted(reduced, reverse=True):
        for other in reduced.values():
            if other is not reduced[lead] and lead in other:
                _subtract(other, other[lead], reduced[lead])
    free = [c for c in range(mat.cols) if c not in reduced]
    kernel = {}
    for t, c in enumerate(free):
        vector = {c: 1, **{p: -row[c] for p, row in reduced.items() if c in row}}
        scale = lcm(*(x.denominator for x in vector.values()))
        kernel.update({(r, t): int(x * scale) for r, x in vector.items()})
    return len(reduced), IntMatrix(mat.cols, len(free), kernel)


def _subtract(row, f, pivot_row):
    """row -= f * pivot_row on sparse rows."""
    for c, x in pivot_row.items():
        y = row.get(c, 0) - f * x
        if y:
            row[c] = y
        else:
            row.pop(c, None)


def determinantal_factors(mat):
    """The nonzero invariant factors of `mat` from their definition: the
    k-th determinantal divisor D_k is the gcd of all k x k minors, and the
    k-th factor is D_k / D_(k-1), for k up to the rank. Every k x k minor
    is a multiple of D_(k-1), so the scan for D_k stops once the gcd
    reaches D_(k-1)."""
    dense = to_rows(mat)
    # a minor through a zero row or column vanishes
    nonzero_rows = sorted(set(mat.row_of))
    nonzero_cols = sorted(set(mat.col_of))
    factors = []
    previous = 1
    for k in range(1, rank_and_kernel(mat)[0] + 1):
        minors = (
            _bareiss([[dense[r][c] for c in cols] for r in rows])
            for rows in combinations(nonzero_rows, k)
            for cols in combinations(nonzero_cols, k)
        )
        divisor = 0
        for minor in minors:
            divisor = gcd(divisor, minor)
            if divisor == previous:
                break
        factors.append(divisor // previous)
        previous = divisor
    return factors
