"""Integer cohomology of a bigraded complex.

The differential preserves the bidegree, so the complex splits into
independent blocks and each block is handled by Smith normal form over
the integers: free ranks come from rank counting, torsion from the
invariant factors of the incoming differential. Both come from the
sparse elimination in `matrices`, without transforms; `smith_normal_form`
runs the same routine with them. All arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cube import Bidegree, BigradedComplex
from .laurent import BivariateLaurent
from .matrices import IntMatrix, _eliminate, det, rank


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
    """Exact Smith normal form with transform tracking; empty matrices are fine."""
    factors, u, v = _eliminate(mat, track=True)
    d = IntMatrix(mat.rows, mat.cols, {(t, t): f for t, f in enumerate(factors)})
    return SNFResult(d=d, u=u, v=v)


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
    for i, level in enumerate(cx.blocks):
        for jk, block in level.items():
            factors = _eliminate(block)[0]
            torsion = tuple(f for f in factors if f > 1)
            block_data[(i, jk)] = (len(factors), torsion)

    summands: dict[tuple[int, int, int], Summand] = {}
    for i in range(heights):
        for jk, dim in cx.dims_at(i).items():
            rank_out = block_data.get((i, jk), (0, ()))[0]
            rank_in, torsion = block_data.get((i - 1, jk), (0, ()))
            free = dim - rank_out - rank_in
            if free < 0:
                raise RuntimeError("rank bookkeeping went negative; complex is inconsistent")
            if free or torsion:
                summands[(i, jk[0], jk[1])] = Summand(free, torsion)
    return CohomologyTable(variant=cx.variant, height_count=heights, summands=summands)


def chain_map_defect(
    src: BigradedComplex, dst: BigradedComplex, maps: list[IntMatrix]
) -> int | None:
    """The lowest height i at which maps[i + 1] @ d_src^i != d_dst^i @ maps[i],
    or None when the maps commute with the differentials at every height."""
    for i in range(src.height_count - 1):
        if maps[i + 1] @ src.differential(i) != dst.differential(i) @ maps[i]:
            return i
    return None


def induced_map_ranks(
    cx_src: BigradedComplex,
    cx_dst: BigradedComplex,
    chain_maps: list[IntMatrix],
) -> dict[tuple[int, int, int], int]:
    """Rank of the induced map on cohomology free parts, per (i, j, k).

    The given per-height matrices must commute with the differentials
    and preserve the bidegree, which holds exactly when the per-bidegree
    blocks of each matrix hold all of its nonzeros; both are checked, in
    that order, before any kernel is computed. Cocycles are pushed forward
    and ranked modulo the target coboundaries.
    """
    heights = cx_src.height_count
    if cx_dst.height_count != heights or len(chain_maps) != heights:
        raise ValueError("chain map must provide one matrix per height")
    f_blocks: dict[tuple[int, Bidegree], IntMatrix] = {}
    for i, mat in enumerate(chain_maps):
        if mat.shape != (cx_dst.rank(i), cx_src.rank(i)):
            raise ValueError(f"chain map at height {i} has shape {mat.shape}")
        for jk, src_idx in cx_src.bidegree_index[i].items():
            f_blocks[(i, jk)] = mat.submatrix(cx_dst.bidegree_index[i].get(jk, []), src_idx)
        if sum(f_blocks[(i, jk)].nnz() for jk in cx_src.bidegree_index[i]) != mat.nnz():
            raise ValueError("chain map does not preserve the bidegree")
    defect = chain_map_defect(cx_src, cx_dst, chain_maps)
    if defect is not None:
        raise ValueError(f"not a chain map: square at height {defect} does not commute")

    out: dict[tuple[int, int, int], int] = {}
    for (i, jk), f_block in f_blocks.items():
        if i < heights - 1:
            cocycles = kernel_basis(cx_src.block(i, jk))
        else:
            cocycles = IntMatrix.identity(f_block.cols)
        pushed = f_block @ cocycles
        boundaries = cx_dst.block(i - 1, jk) if i > 0 else IntMatrix.zeros(f_block.rows, 0)
        r = rank(pushed.hstack(boundaries)) - rank(boundaries)
        if r:
            out[(i, jk[0], jk[1])] = r
    return out
