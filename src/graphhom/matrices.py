"""Exact integer matrices.

One sparse form, `IntMatrix`: three flat sequences of equal length
(row, column, value), one entry each. `cube.build_complex` hands over
the +-1 blocks of a differential as `array`s of positions and signed
bytes (`from_triplets`), adopted as they are; built from a
{(row, col): value} dict, the values are Python's arbitrary-precision
integers, because entries in normal-form computations can grow far past
any fixed width. The only arithmetic is the product that `verify_snf`
checks a Smith normal form with. `_eliminate` is the one elimination
routine: it yields the invariant factors, and on request the
transforms, behind the per-block cohomology and `smith_normal_form`. Its
pivot queue is a heap with one key per row, pushed when the row changes
and checked against the row when popped. `det` (Bareiss) stays a separate
dense routine so that `verify_snf` checks unimodularity independently of
it.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import Iterator, Mapping, Sequence

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

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Mapping[tuple[int, int], int] | None = None,
    ) -> None:
        """The matrix of a {(row, col): value} dict, zero values dropped."""
        keys = [key for key, v in entries.items() if v] if entries else []
        self._set(rows, cols, [r for r, _ in keys], [c for _, c in keys], [entries[k] for k in keys])

    @classmethod
    def from_triplets(
        cls, rows: int, cols: int, row_of: Ints, col_of: Ints, val_of: Ints
    ) -> "IntMatrix":
        """The matrix with entries `val_of[t]` at (`row_of[t]`, `col_of[t]`).

        The sequences are adopted, not copied, and must not change
        afterwards; each position must occur at most once.
        """
        mat = cls.__new__(cls)
        mat._set(rows, cols, row_of, col_of, val_of)
        return mat

    def _set(self, rows: int, cols: int, row_of: Ints, col_of: Ints, val_of: Ints) -> None:
        """Set the fields, refusing a position outside the shape or a zero
        value by min/max over the sequences rather than entry by entry."""
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
        set_field = object.__setattr__
        set_field(self, "rows", rows)
        set_field(self, "cols", cols)
        set_field(self, "row_of", row_of)
        set_field(self, "col_of", col_of)
        set_field(self, "val_of", val_of)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_rows(cls, dense: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        nrows = len(dense)
        if cols is None:
            cols = len(dense[0]) if nrows else 0
        entries: dict[tuple[int, int], int] = {}
        for r, row in enumerate(dense):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        return cls(nrows, cols, entries)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def triplets(self) -> Iterator[tuple[int, int, int]]:
        return zip(self.row_of, self.col_of, self.val_of)

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return sorted(self.triplets())

    def nnz(self) -> int:
        return len(self.val_of)

    def is_zero(self) -> bool:
        return not self.val_of

    def to_rows(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for r, c, v in self.triplets():
            dense[r][c] = v
        return dense

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        rows_of_other: dict[int, list[tuple[int, int]]] = {}
        for r, c, v in other.triplets():
            rows_of_other.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], int] = {}
        for r, k, v in self.triplets():
            for c, w in rows_of_other.get(k, ()):
                key = (r, c)
                out[key] = out.get(key, 0) + v * w
        return IntMatrix(self.rows, other.cols, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self.sorted_entries() == other.sorted_entries()

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, nnz={len(self.val_of)})"


def _axpy(
    dst: dict[int, int],
    src: dict[int, int],
    q: int,
    index: dict[int, set[int]] | None = None,
    key: int = 0,
) -> None:
    """dst += q * src on sparse vectors.

    With `index` (column -> rows holding an entry there), `dst` is row
    `key` of the working matrix and the index follows every entry the
    update creates or cancels.
    """
    if not q:
        return
    for j, x in src.items():
        y = dst.get(j, 0) + q * x
        if y:
            if index is not None and j not in dst:
                index[j].add(key)
            dst[j] = y
        else:
            del dst[j]
            if index is not None:
                index[j].discard(key)


def _pivot_key(i: int, row: dict[int, int]) -> tuple[int, int, int]:
    """Heap key of row `i`: (smallest |entry|, number of entries, row)."""
    return min(map(abs, row.values())), len(row), i


def _eliminate(
    mat: IntMatrix, track: bool = False
) -> tuple[list[int], IntMatrix | None, IntMatrix | None]:
    """Nonzero invariant factors of `mat`, by sparse integer elimination.

    The working matrix, read straight from the triplets of `mat`, is a
    dict of sparse rows plus a column -> rows index; it is never made
    dense. The pivot row is the row with the smallest (smallest |entry| in
    the row, number of entries in the row, row index). Within it the pivot
    column is, among the entries of that smallest |entry|, the one whose
    column has the fewest entries, then the lowest index. So every pivot is
    an entry of smallest absolute value in the whole working matrix, and
    the pivot order depends only on that matrix. The pivot's column is
    cleared with row operations, then its row with column operations, both
    by floor quotients. A surviving remainder is smaller than the pivot, so
    the pivot is picked again. A pivot that does not divide every remaining
    entry gets the first offending row added to its own row and is reduced
    again. Hence each factor divides all later ones: they come out positive
    and in divisibility order.

    With `track`, also returns unimodular U (rows x rows) and V
    (cols x cols) with U @ mat @ V equal to the factors on the leading
    diagonal and zero elsewhere; the columns of V past the factors span
    the kernel. Without it the second and third results are None.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for r, c, x in mat.triplets():
        rows.setdefault(r, {})[c] = x
        cols.setdefault(c, set()).add(r)
    u = {i: {i: 1} for i in range(mat.rows)} if track else {}
    v = {j: {j: 1} for j in range(mat.cols)} if track else {}
    # One `_pivot_key` per row. Each step pushes the current key of every
    # row it changed, so every row's current key is in the heap. A popped
    # key whose row is gone, or differs from the row's current key, is
    # dropped for good; the first one that matches names the pivot row.
    heap: list[tuple[int, int, int]] = []
    dirty = set(rows)
    pivots: list[tuple[int, int]] = []
    factors: list[int] = []
    repick = True
    while True:
        for i in dirty & rows.keys():
            row = rows[i]
            if not row:
                del rows[i]
                continue
            heappush(heap, _pivot_key(i, row))
        dirty = set()
        if not rows:
            break
        while repick:
            key = heappop(heap)
            m, _, r = key
            row_r = rows.get(r)
            repick = row_r is None or key != _pivot_key(r, row_r)
            if not repick:
                c = min((j for j, x in row_r.items() if abs(x) == m), key=lambda j: (len(cols[j]), j))
        repick = True
        p = row_r[c]

        others = [i for i in cols[c] if i != r]
        for i in others:
            q = rows[i][c] // p
            _axpy(rows[i], row_r, -q, cols, i)
            if track:
                _axpy(u[i], u[r], -q)
        dirty.update(others)
        dirty.add(r)
        if len(cols[c]) > 1:
            continue

        for j, x in list(row_r.items()):
            if j != c:
                q = x // p
                if track:
                    _axpy(v[j], v[c], -q)
                if x - q * p:
                    row_r[j] = x - q * p
                else:
                    del row_r[j]
                    cols[j].discard(r)
        if len(row_r) > 1:
            continue

        if p not in (1, -1):
            offender = next(
                (i for i, row in rows.items() if i != r and any(x % p for x in row.values())),
                None,
            )
            if offender is not None:
                _axpy(row_r, rows[offender], 1, cols, r)
                if track:
                    _axpy(u[r], u[offender], 1)
                # Keep this pivot: its row now holds a non-multiple of p,
                # which the row pass reduces to a remainder below |p|.
                repick = False
                continue

        del rows[r]
        cols[c].discard(r)
        if track and p < 0:
            u[r] = {k: -x for k, x in u[r].items()}
        pivots.append((r, c))
        factors.append(abs(p))

    if not track:
        return factors, None, None
    row_order = [r for r, _ in pivots]
    col_order = [c for _, c in pivots]
    done_rows, done_cols = set(row_order), set(col_order)
    row_order += [i for i in range(mat.rows) if i not in done_rows]
    col_order += [j for j in range(mat.cols) if j not in done_cols]
    u_mat = {(t, k): x for t, i in enumerate(row_order) for k, x in u[i].items()}
    v_mat = {(k, t): x for t, j in enumerate(col_order) for k, x in v[j].items()}
    return factors, IntMatrix(mat.rows, mat.rows, u_mat), IntMatrix(mat.cols, mat.cols, v_mat)


def det(mat: IntMatrix) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    if mat.rows != mat.cols:
        raise ValueError("determinant of a non-square matrix")
    n = mat.rows
    if n == 0:
        return 1
    a = mat.to_rows()
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
