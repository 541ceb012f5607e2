"""Exact integer matrices.

Sparse storage keyed by (row, col); all arithmetic uses Python's
arbitrary-precision integers, because entries in normal-form computations
can grow far past any fixed width. Dense helpers (`rank`, `det`) back the
cohomology computations.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence


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

    def nnz(self) -> int:
        return len(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def to_rows(self) -> list[list[int]]:
        dense = [[0] * self.cols for _ in range(self.rows)]
        for (r, c), v in self._entries.items():
            dense[r][c] = v
        return dense

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, {k: -v for k, v in self._entries.items()})

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        out = dict(self._entries)
        for key, v in other._entries.items():
            out[key] = out.get(key, 0) + v
        return IntMatrix(self.rows, self.cols, out)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self + (-other)

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

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch in hstack")
        out = dict(self._entries)
        for (r, c), v in other._entries.items():
            out[(r, c + self.cols)] = v
        return IntMatrix(self.rows, self.cols + other.cols, out)

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMatrix":
        """Restriction to the given rows/columns, in the given order."""
        rpos = {r: i for i, r in enumerate(row_idx)}
        cpos = {c: j for j, c in enumerate(col_idx)}
        out: dict[tuple[int, int], int] = {}
        for (r, c), v in self._entries.items():
            i = rpos.get(r)
            j = cpos.get(c)
            if i is not None and j is not None:
                out[(i, j)] = v
        return IntMatrix(len(row_idx), len(col_idx), out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.shape == other.shape and self._entries == other._entries

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, frozenset(self._entries.items())))

    def __repr__(self) -> str:
        return f"IntMatrix({self.rows}x{self.cols}, nnz={len(self._entries)})"


def rank(mat: IntMatrix) -> int:
    """Rank over the rationals, by exact Gaussian elimination."""
    m, n = mat.rows, mat.cols
    if m == 0 or n == 0 or mat.is_zero():
        return 0
    a = [[Fraction(v) for v in row] for row in mat.to_rows()]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        for i in range(r + 1, m):
            f = a[i][c] / prow[c]
            if f:
                arow = a[i]
                for j in range(c, n):
                    arow[j] -= f * prow[j]
        r += 1
        if r == m:
            break
    return r


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
