"""Integer cohomology of a bigraded complex.

The differential preserves the bidegree, so the complex splits into
independent blocks and each block is handled by Smith normal form over
the integers: free ranks come from rank counting, torsion from the
invariant factors of the incoming differential. All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cube import Bidegree, BigradedComplex
from .laurent import BivariateLaurent
from .matrices import IntMatrix, det, rank


@dataclass(frozen=True)
class SNFResult:
    """Diagonalization u @ a @ v = d with unimodular u, v.

    The diagonal of d is nonnegative and each entry divides the next
    (the invariant factors).
    """

    d: IntMatrix
    u: IntMatrix
    v: IntMatrix

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        out = []
        for i in range(min(self.d.rows, self.d.cols)):
            val = self.d.entry(i, i)
            if val:
                out.append(val)
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)


def smith_normal_form(mat: IntMatrix) -> SNFResult:
    """Exact Smith normal form with transform tracking.

    Pivots are chosen by minimal absolute value to limit entry growth;
    empty matrices are fine.
    """
    m, n = mat.rows, mat.cols
    a = mat.to_rows()
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst: int, src: int, q: int) -> None:
        if not q:
            return
        arow, asrc = a[dst], a[src]
        for k in range(n):
            arow[k] += q * asrc[k]
        urow, usrc = u[dst], u[src]
        for k in range(m):
            urow[k] += q * usrc[k]

    def add_col(dst: int, src: int, q: int) -> None:
        if not q:
            return
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        pivot = None
        best = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                val = row[j]
                if val and (pivot is None or abs(val) < best):
                    pivot = (i, j)
                    best = abs(val)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            col_rest = [i for i in range(t + 1, m) if a[i][t]]
            if col_rest:
                i = min(col_rest, key=lambda r: abs(a[r][t]))
                if abs(a[i][t]) < abs(a[t][t]):
                    swap_rows(t, i)
                for r in range(t + 1, m):
                    add_row(r, t, -(a[r][t] // a[t][t]))
                continue
            row_rest = [j for j in range(t + 1, n) if a[t][j]]
            if row_rest:
                j = min(row_rest, key=lambda c: abs(a[t][c]))
                if abs(a[t][j]) < abs(a[t][t]):
                    swap_cols(t, j)
                for c in range(t + 1, n):
                    add_col(c, t, -(a[t][c] // a[t][t]))
                continue
            piv = a[t][t]
            offender = None
            for i in range(t + 1, m):
                row = a[i]
                for j in range(t + 1, n):
                    if row[j] % piv:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    return SNFResult(
        d=IntMatrix.from_rows(a, n),
        u=IntMatrix.from_rows(u, m),
        v=IntMatrix.from_rows(v, n),
    )


def verify_snf(mat: IntMatrix, res: SNFResult) -> None:
    """Raise ValueError unless res is a valid Smith normal form of mat."""
    if res.u @ mat @ res.v != res.d:
        raise ValueError("U @ A @ V != D")
    for r, c, _ in res.d.sorted_entries():
        if r != c:
            raise ValueError("D is not diagonal")
    factors = [res.d.entry(i, i) for i in range(min(res.d.rows, res.d.cols))]
    if any(f < 0 for f in factors):
        raise ValueError("D has a negative diagonal entry")
    nonzero = [f for f in factors if f]
    if any(f == 0 for f in factors[: len(nonzero)]):
        raise ValueError("zero diagonal entry before a nonzero one")
    for first, second in zip(nonzero, nonzero[1:]):
        if second % first:
            raise ValueError(f"divisibility chain broken: {first} does not divide {second}")
    if abs(det(res.u)) != 1:
        raise ValueError("U is not unimodular")
    if abs(det(res.v)) != 1:
        raise ValueError("V is not unimodular")


def kernel_basis(mat: IntMatrix) -> IntMatrix:
    """Columns spanning ker(mat) over the rationals (integer vectors)."""
    res = smith_normal_form(mat)
    r = res.rank
    return res.v.submatrix(range(mat.cols), range(r, mat.cols))


def _diagonal_factors(mat: IntMatrix) -> list[int]:
    """Nonzero invariant factors of mat, without transform tracking.

    Same elimination as `smith_normal_form`, restricted to the active
    window and with a fast path for unit pivots; backs the per-block
    cohomology computation where U and V are never needed.
    """
    m, n = mat.rows, mat.cols
    if m == 0 or n == 0 or mat.is_zero():
        return []
    a = mat.to_rows()
    factors: list[int] = []
    t = 0
    limit = min(m, n)
    while t < limit:
        pi = -1
        pj = -1
        best = 0
        for i in range(t, m):
            row = a[i]
            for j in range(t, n):
                v = row[j]
                if v:
                    av = -v if v < 0 else v
                    if pi < 0 or av < best:
                        pi, pj, best = i, j, av
                        if av == 1:
                            break
            if best == 1:
                break
        if pi < 0:
            break
        if pi != t:
            a[t], a[pi] = a[pi], a[t]
        if pj != t:
            for row in a[t:]:
                row[t], row[pj] = row[pj], row[t]
        while True:
            piv = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                v = a[i][t]
                if v:
                    q = v // piv
                    if q:
                        ai, at = a[i], a[t]
                        for k in range(t, n):
                            ai[k] -= q * at[k]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                v = a[t][j]
                if v:
                    q = v // piv
                    if q:
                        for i2 in range(t, m):
                            row = a[i2]
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a[t:]:
                            row[t], row[j] = row[j], row[t]
                        dirty = True
                        break
            if dirty:
                continue
            piv = a[t][t]
            if piv not in (1, -1):
                offender = -1
                for i in range(t + 1, m):
                    row = a[i]
                    for j in range(t + 1, n):
                        if row[j] % piv:
                            offender = i
                            break
                    if offender >= 0:
                        break
                if offender >= 0:
                    at, ao = a[t], a[offender]
                    for k in range(t, n):
                        at[k] += ao[k]
                    continue
            break
        factors.append(abs(a[t][t]))
        t += 1
    return factors


@dataclass(frozen=True)
class Summand:
    free_rank: int
    torsion: tuple[int, ...] = ()


@dataclass
class CohomologyTable:
    """Free rank and invariant-factor torsion per (height, bidegree)."""

    variant: str
    height_count: int
    summands: dict[tuple[int, int, int], Summand] = field(default_factory=dict)

    def sorted_items(self) -> list[tuple[tuple[int, int, int], Summand]]:
        return sorted(self.summands.items())

    def free_rank(self, i: int, j: int, k: int) -> int:
        s = self.summands.get((i, j, k))
        return s.free_rank if s else 0

    def torsion(self, i: int, j: int, k: int) -> tuple[int, ...]:
        s = self.summands.get((i, j, k))
        return s.torsion if s else ()

    def euler(self) -> BivariateLaurent:
        """Alternating sum of free ranks; torsion is invisible here."""
        out: dict[Bidegree, int] = {}
        for (i, j, k), s in self.summands.items():
            if s.free_rank:
                sign = -1 if i % 2 else 1
                out[(j, k)] = out.get((j, k), 0) + sign * s.free_rank
        return BivariateLaurent(out)

    def to_json_dict(self) -> dict:
        groups = []
        for i in range(self.height_count):
            summands = [
                {
                    "bidegree": [j, k],
                    "free_rank": s.free_rank,
                    "torsion": list(s.torsion),
                }
                for (h, j, k), s in self.sorted_items()
                if h == i
            ]
            groups.append({"i": i, "summands": summands})
        return {
            "variant": self.variant,
            "groups": groups,
            "euler": self.euler().to_json_dict(),
        }


def cohomology(cx: BigradedComplex) -> CohomologyTable:
    """Integer cohomology of the complex, blockwise per bidegree."""
    heights = cx.height_count
    block_data: dict[tuple[int, Bidegree], tuple[int, tuple[int, ...]]] = {}
    for i in range(heights - 1):
        for jk in set(cx.bidegree_index[i]) | set(cx.bidegree_index[i + 1]):
            block = cx.block(i, jk)
            if block.rows == 0 or block.cols == 0 or block.is_zero():
                block_data[(i, jk)] = (0, ())
                continue
            factors = _diagonal_factors(block)
            torsion = tuple(f for f in factors if f > 1)
            block_data[(i, jk)] = (len(factors), torsion)

    summands: dict[tuple[int, int, int], Summand] = {}
    for i in range(heights):
        for jk, idx in cx.bidegree_index[i].items():
            dim = len(idx)
            rank_out = block_data.get((i, jk), (0, ()))[0]
            rank_in, torsion = block_data.get((i - 1, jk), (0, ()))
            free = dim - rank_out - rank_in
            if free < 0:
                raise RuntimeError("rank bookkeeping went negative; complex is inconsistent")
            if free or torsion:
                summands[(i, jk[0], jk[1])] = Summand(free, torsion)
    return CohomologyTable(variant=cx.variant, height_count=heights, summands=summands)


def induced_map_ranks(
    cx_src: BigradedComplex,
    cx_dst: BigradedComplex,
    chain_maps: list[IntMatrix],
) -> dict[tuple[int, int, int], int]:
    """Rank of the induced map on cohomology free parts, per (i, j, k).

    The given per-height matrices must commute with the differentials
    and preserve the bidegree; cocycles are pushed forward and ranked
    modulo the target coboundaries.
    """
    heights = cx_src.height_count
    if cx_dst.height_count != heights or len(chain_maps) != heights:
        raise ValueError("chain map must provide one matrix per height")
    for i, mat in enumerate(chain_maps):
        if mat.shape != (cx_dst.rank(i), cx_src.rank(i)):
            raise ValueError(f"chain map at height {i} has shape {mat.shape}")
        for r, c, _ in mat.sorted_entries():
            if cx_dst.bidegrees[i][r] != cx_src.bidegrees[i][c]:
                raise ValueError("chain map does not preserve the bidegree")
    for i in range(heights - 1):
        if chain_maps[i + 1] @ cx_src.differential(i) != cx_dst.differential(i) @ chain_maps[i]:
            raise ValueError(f"not a chain map: square at height {i} does not commute")

    out: dict[tuple[int, int, int], int] = {}
    for i in range(heights):
        for jk, src_idx in cx_src.bidegree_index[i].items():
            dst_idx = cx_dst.bidegree_index[i].get(jk, []) if i < cx_dst.height_count else []
            f_block = chain_maps[i].submatrix(dst_idx, src_idx)
            if i < heights - 1:
                cocycles = kernel_basis(cx_src.block(i, jk))
            else:
                cocycles = IntMatrix.identity(len(src_idx))
            pushed = f_block @ cocycles
            boundaries = cx_dst.block(i - 1, jk) if i > 0 else IntMatrix.zeros(len(dst_idx), 0)
            r = rank(pushed.hstack(boundaries)) - rank(boundaries)
            if r:
                out[(i, jk[0], jk[1])] = r
    return out
