"""Exact integer matrices.

Two sparse forms. `IntMatrix` keys its entries by (row, col) and holds
Python's arbitrary-precision integers, because entries in normal-form
computations can grow far past any fixed width; its only arithmetic is
the product that `verify_snf` checks a Smith normal form with.
`TripletMatrix` holds its entries as three flat arrays (row, column,
signed byte), the triplet form in which `cube.build_complex` writes the
+-1 blocks of a differential; it converts to an `IntMatrix` only on
request. `_eliminate` is the one elimination routine, and it starts from
either form: it yields the invariant factors, and on request the
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


class IntMatrix:
    """Immutable sparse matrix over the integers with an explicit shape."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Mapping[tuple[int, int], int] | None = None,
    ) -> None:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix shape {rows}x{cols}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        cleaned: dict[tuple[int, int], int] = {}
        if entries:
            for (r, c), v in entries.items():
                if not (0 <= r < rows and 0 <= c < cols):
                    raise ValueError(f"entry ({r},{c}) outside shape {rows}x{cols}")
                if v:
                    cleaned[(r, c)] = v
        object.__setattr__(self, "_entries", cleaned)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("IntMatrix is immutable")

    @classmethod
    def _adopt(cls, rows: int, cols: int, entries: dict[tuple[int, int], int]) -> "IntMatrix":
        """An IntMatrix that takes `entries` as its own, unchecked: only for
        entries that are nonzero and inside the shape by construction."""
        mat = cls.__new__(cls)
        object.__setattr__(mat, "rows", rows)
        object.__setattr__(mat, "cols", cols)
        object.__setattr__(mat, "_entries", entries)
        return mat

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

    def entry(self, r: int, c: int) -> int:
        return self._entries.get((r, c), 0)

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return [(r, c, v) for (r, c), v in sorted(self._entries.items())]

    def triplets(self) -> Iterator[tuple[int, int, int]]:
        return ((r, c, v) for (r, c), v in self._entries.items())

    def nnz(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def to_rows(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self._entries.items():
            dense[r][c] = v
        return dense

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        rows_of_other: dict[int, list[tuple[int, int]]] = {}
        for (r, c), v in other._entries.items():
            rows_of_other.setdefault(r, []).append((c, v))
        out: dict[tuple[int, int], int] = {}
        for (r, k), v in self._entries.items():
            hits = rows_of_other.get(k)
            if not hits:
                continue
            for c, w in hits:
                key = (r, c)
                out[key] = out.get(key, 0) + v * w
        return IntMatrix(self.rows, other.cols, out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._entries == other._entries

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, nnz={len(self._entries)})"


class TripletMatrix:
    """Sparse matrix of small nonzero entries held as three flat arrays of
    equal length: `row_of[t]`, `col_of[t]` and `val_of[t]` give entry t.

    Each position occurs at most once. The arrays are adopted, not copied,
    and must not change afterwards. A position outside the shape or a zero
    value is refused, by min/max over the arrays rather than entry by entry.
    """

    __slots__ = ("rows", "cols", "row_of", "col_of", "val_of")

    def __init__(self, rows: int, cols: int, row_of: array, col_of: array, val_of: array) -> None:
        if rows < 0 or cols < 0:
            raise ValueError(f"negative matrix shape {rows}x{cols}")
        if not len(row_of) == len(col_of) == len(val_of):
            raise ValueError("triplet arrays of unequal length")
        if val_of and (
            min(row_of) < 0 or max(row_of) >= rows or min(col_of) < 0 or max(col_of) >= cols
        ):
            raise ValueError(f"entry outside shape {rows}x{cols}")
        if 0 in val_of:
            raise ValueError("zero entry in a triplet matrix")
        self.rows, self.cols = rows, cols
        self.row_of, self.col_of, self.val_of = row_of, col_of, val_of

    def nnz(self) -> int:
        return len(self.val_of)

    def is_zero(self) -> bool:
        return not self.val_of

    def triplets(self) -> Iterator[tuple[int, int, int]]:
        return zip(self.row_of, self.col_of, self.val_of)

    def sorted_entries(self) -> list[tuple[int, int, int]]:
        return sorted(self.triplets())

    def as_intmatrix(self) -> IntMatrix:
        """The same matrix as an `IntMatrix`, built on each call; the
        positions and values were checked when the arrays were adopted."""
        entries = dict(zip(zip(self.row_of, self.col_of), self.val_of))
        return IntMatrix._adopt(self.rows, self.cols, entries)

    def __repr__(self) -> str:
        return f"TripletMatrix({self.rows}x{self.cols}, nnz={len(self.val_of)})"


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
    mat: IntMatrix | TripletMatrix, track: bool = False
) -> tuple[list[int], IntMatrix | None, IntMatrix | None]:
    """Nonzero invariant factors of `mat`, by sparse integer elimination.

    The working matrix, read straight from the triplets of either form,
    is a dict of sparse rows plus a column -> rows index; it is never made
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
