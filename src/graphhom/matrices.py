"""Exact integer matrices.

One sparse form, `IntMatrix`: three flat sequences of equal length
(row, column, value), one entry each, adopted as they are by
`from_triplets`. `cube.build_complex` hands over the +-1 blocks of a
differential as `array`s of positions and signed bytes. `_eliminate` is
the one elimination routine: it yields the nonzero invariant factors
behind the per-block cohomology, with a set of columns left out, and the
rows of the leading unit pivots, which `homology.cohomology` leaves out
as columns one height up. Its working rows hold Python ints, because
entries can grow far past any fixed width during elimination. Its pivot
queue is a heap with one key per row, built by one `heapify`, pushed
again when a step changes the row and checked against the row when
popped. Almost every pivot is +-1, and such a unit pivot takes a step of
its own: exact row operations, then its row and column are dropped. The
other pivots take the general step of floor-quotient row and column
operations. Both steps leave the same working matrix after a unit, so
the pivot order is that of the general step alone.

The one invariant-factor normal form of a finite abelian group lives
here too: `prime_powers` splits cyclic orders into prime powers and
`invariant_factors` turns prime powers back into factors in
divisibility order. `_eliminate` normalises its diagonal of pivots with
them, and `homology` adds and compares torsion with them.
"""

from __future__ import annotations

from array import array
from collections import Counter
from heapq import heapify, heappop, heappush
from math import isqrt
from typing import AbstractSet, Iterable, Iterator, Mapping, Sequence

# Typecode of a triplet position: a C int of at least 32 bits, wide enough
# for any position below the chain-rank limit of `cube.build_complex`.
INDEX_TYPECODE = "i" if array("i").itemsize >= 4 else "l"
Ints = Sequence[int]


class IntMatrix:
    """Immutable sparse matrix over the integers with an explicit shape.

    Entry t is `val_of[t]` at (`row_of[t]`, `col_of[t]`). Each position
    occurs at most once and no value is zero.
    """

    __slots__ = ("rows", "cols", "row_of", "col_of", "val_of")

    @classmethod
    def from_triplets(
        cls, rows: int, cols: int, row_of: Ints, col_of: Ints, val_of: Ints
    ) -> "IntMatrix":
        """The matrix with entries `val_of[t]` at (`row_of[t]`, `col_of[t]`).

        The sequences are adopted, not copied, and must not change
        afterwards; each position must occur at most once. A position
        outside the shape or a zero value is refused by min/max over the
        sequences rather than entry by entry.
        """
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix shape {rows}x{cols}")
        if not len(row_of) == len(col_of) == len(val_of):
            raise ValueError("triplet sequences of unequal length")
        if val_of and (
            min(row_of) < 0 or max(row_of) >= rows or min(col_of) < 0 or max(col_of) >= cols
        ):
            raise ValueError(f"entry outside shape {rows}x{cols}")
        if 0 in val_of:
            raise ValueError("zero entry in an IntMatrix")
        mat = cls.__new__(cls)
        for name, value in zip(cls.__slots__, (rows, cols, row_of, col_of, val_of)):
            object.__setattr__(mat, name, value)
        return mat

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntMatrix is immutable")

    def triplets(self) -> Iterator[tuple[int, int, int]]:
        return zip(self.row_of, self.col_of, self.val_of)

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return sorted(self.triplets())

    def nnz(self) -> int:
        return len(self.val_of)

    def is_zero(self) -> bool:
        return not self.val_of


def prime_powers(factors: Iterable[int]) -> Counter[int]:
    """The prime-power cyclic summands of the group Z/f_1 + Z/f_2 + ...,
    as a multiset: Z/12 + Z/2 gives {4: 1, 3: 1, 2: 1}."""
    out: Counter[int] = Counter()
    for n in factors:
        p = 2
        while n > 1:
            if p * p > n:
                out[n] += 1
                break
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            if q > 1:
                out[q] += 1
            p += 1
    return out


def invariant_factors(powers: Mapping[int, int]) -> tuple[int, ...]:
    """The invariant factors, in divisibility order, of the group whose
    prime-power cyclic summands are the multiset `powers`: the inverse of
    `prime_powers`, so {4: 1, 3: 1, 2: 1} gives (2, 12).

    The largest factor is the product of the largest power of every prime,
    the next one that of the next largest powers, and so on.
    """
    by_prime: dict[int, list[int]] = {}
    for q in sorted(powers, reverse=True):
        p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
        by_prime.setdefault(p, []).extend([q] * powers[q])
    factors = [1] * max(map(len, by_prime.values()), default=0)
    for qs in by_prime.values():
        for t, q in enumerate(qs):
            factors[t] *= q
    return tuple(reversed(factors))


def _axpy(
    dst: dict[int, int], src: dict[int, int], q: int, index: dict[int, set[int]], key: int
) -> None:
    """dst += q * src on sparse vectors, where `dst` is row `key` of the
    working matrix and `index` (column -> rows holding an entry there)
    follows every entry the update creates or cancels."""
    if not q:
        return
    for j, x in src.items():
        y = dst.get(j, 0) + q * x
        if y:
            if j not in dst:
                index[j].add(key)
            dst[j] = y
        else:
            del dst[j]
            index[j].discard(key)


def _eliminate(
    mat: IntMatrix, skip: AbstractSet[int] = frozenset()
) -> tuple[list[int], list[int]]:
    """Nonzero invariant factors of `mat` with the columns in `skip` left
    out, by sparse integer elimination; and the rows of its leading unit
    pivots.

    The working matrix, read straight from the triplets of `mat`, is a
    dict of sparse rows plus a column -> rows index; it is never made
    dense. The pivot row is the row with the smallest (smallest |entry| in
    the row, number of entries in the row, row index). Within it the pivot
    column is, among the entries of that smallest |entry|, the one whose
    column has the fewest entries, then the lowest index. So every pivot is
    an entry of smallest absolute value in the whole working matrix, and
    the pivot order depends only on that matrix.

    A unit pivot p = +-1 at (r, c) takes a step of its own. Each other row
    i of column c gets row r times the exact quotient -row_i[c] * p, which
    clears its entry in column c. Column c then holds only the pivot, so
    the column operations that would clear row r leave no remainder and
    touch no other row: the step skips them and drops row r and column c
    at once. That is the working matrix the general step leaves after a
    unit, so the unit step keeps the pivot order. In the general step any
    other pivot p is cleared from its column with row operations, then
    from its row with column operations, both by floor quotients. A
    surviving remainder is smaller than |p|, so the pivot is picked again.
    A pivot is finalised once its row and column are clear, whatever its
    value, so the finalised pivots form a diagonal matrix equivalent to
    `mat` without the columns in `skip`. Its invariant factors, positive
    and in divisibility order, are its unit pivots as 1s followed by
    `invariant_factors(prime_powers(...))` of its other pivots (Newman,
    "Integral Matrices", 1972). That normalisation runs only when some
    pivot is not a unit. It takes at most sqrt(|p|) trial divisions per
    such pivot p, and these pivots multiply to the order of the torsion of
    the cokernel, the group `homology.yamada_cohomology` factors as well.

    The second list holds, in order, the rows of the unit pivots finalised
    before the first pick of an entry of absolute value 2 or more; it stops
    at that pick, not when its pivot is finalised. Until then every row
    operation adds a multiple of one of these rows and every column
    operation a multiple of one of their pivot columns, so `mat` restricted
    to these rows and columns is unimodular. A later unit pivot may stand
    on a remainder of a non-unit one (3 mod 2 in the column (0, 3, 2)) and
    is not reported. `homology.cohomology` skips these rows of d^i as
    columns of d^(i+1).
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, c, x in mat.triplets():
        if c in skip:
            continue
        rows.setdefault(r, {})[c] = x
        cols.setdefault(c, set()).add(r)
    # The heap holds the key (smallest |entry|, number of entries, row) of
    # every row: a step pushes the new key of each row in `changed`, the
    # rows it updated and a pivot row it keeps. A popped key whose row is
    # gone or now has another key is dropped for good; the first one that
    # matches its row names the pivot row.
    heap = [(min(map(abs, row.values())), len(row), i) for i, row in rows.items()]
    heapify(heap)
    units = 0
    non_units: list[int] = []
    unit_rows: list[int] = []
    units_only = True
    while rows:
        while True:
            m, n, r = heappop(heap)
            row_r = rows.get(r)
            if row_r is not None and n == len(row_r) and m == min(map(abs, row_r.values())):
                break
        c = min((len(cols[j]), j) for j, x in row_r.items() if abs(x) == m)[1]

        if m == 1:
            p = row_r.pop(c)
            del rows[r]
            for j in row_r:
                cols[j].discard(r)
            changed = cols.pop(c)
            changed.discard(r)
            for i in changed:
                row_i = rows[i]
                _axpy(row_i, row_r, -row_i.pop(c) * p, cols, i)
            units += 1
            if units_only:
                unit_rows.append(r)
        else:
            units_only = False
            p = row_r[c]
            changed = [i for i in cols[c] if i != r]
            for i in changed:
                row_i = rows[i]
                _axpy(row_i, row_r, -(row_i[c] // p), cols, i)
            if len(cols[c]) == 1:
                for j, x in list(row_r.items()):
                    if j != c:
                        y = x % p
                        if y:
                            row_r[j] = y
                        else:
                            del row_r[j]
                            cols[j].discard(r)
            if len(row_r) == len(cols[c]) == 1:
                del rows[r], cols[c]
                non_units.append(m)
            else:
                changed.append(r)
        for i in changed:
            row_i = rows[i]
            if row_i:
                heappush(heap, (min(map(abs, row_i.values())), len(row_i), i))
            else:
                del rows[i]
    torsion = invariant_factors(prime_powers(non_units)) if non_units else ()
    return [1] * (units + len(non_units) - len(torsion)) + list(torsion), unit_rows
