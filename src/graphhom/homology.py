"""Integer cohomology of a bigraded complex, and checks on chain maps.

The differential preserves the bidegree, so the complex splits into
independent blocks, and each block needs only its invariant factors over
the integers: free ranks come from rank counting, torsion from the
invariant factors of the incoming differential. Both come from the
sparse elimination in `matrices`, which computes the factors and no
transforms. Each bidegree is walked upward in height, and the basis
elements that the leading unit pivots of one block cancel are left out
of the next block up, which keeps its factors (Gaussian elimination,
Bar-Natan, "Fast Khovanov homology computations", 2007). All arithmetic
is exact.

A chain map is a list of per-height target arrays (see `cube`), so
`chain_map_defect` compares f o d with d o f by relabelling the nonzeros
of the blocks through the arrays, with no matrix product.
`summand_defect` compares two tables summand by summand, with torsion
split into prime powers.

`yamada_cohomology` gets the yamada table without eliminating the yamada
complex: the complex is a direct sum, over the edge subsets A, of shifted
copies of the tutte complexes of the contractions G/A, so the table is a
sum of the tutte tables of the minors, each worked out once per call.
Torsion is added as prime powers and turned back into invariant factors
by `prime_powers` and `invariant_factors`, which live in `matrices`
beside the elimination that uses them too. `cohomology(build_complex(G,
"yamada"))` stays the whole-complex route, which `check` and the tests
take.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import Iterable

from .cube import Bidegree, BigradedComplex, build_complex, state_slots
from .laurent import BivariateLaurent
from .matrices import _eliminate, invariant_factors, prime_powers
from .multigraph import Multigraph


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
    """Integer cohomology of the complex, blockwise per bidegree.

    Each bidegree is walked upward in height. The rows of the leading unit
    pivots of block (i, jk) (see `_eliminate`) are basis elements of
    C^(i+1) in bidegree jk, and block (i+1, jk) is eliminated without them
    as columns: they are integer combinations of its other columns, so its
    invariant factors do not change.
    """
    heights = cx.height_count
    block_data: dict[tuple[int, Bidegree], tuple[int, tuple[int, ...]]] = {}
    # bidegree -> unit pivot rows of its block one height down
    cancelled: dict[Bidegree, frozenset[int]] = {}
    for i, level in enumerate(cx.blocks):
        below, cancelled = cancelled, {}
        for jk, block in level.items():
            factors, unit_rows = _eliminate(block, below.get(jk, frozenset()))
            cancelled[jk] = frozenset(unit_rows)
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


def yamada_cohomology(G: Multigraph) -> CohomologyTable:
    """The cohomology of the yamada complex of G, as a sum over the edge
    subsets A of shifted copies of the tutte cohomology of G/A:

        H^i_(j,k)(yamada, G) = sum over A and m of
            C(b1(A), m) * H^(i-|A|)_(j-|A|, k-m)(tutte, G/A).

    The yamada basis elements whose edge generators sit exactly on A span
    a subcomplex, since every per-edge map puts a unit in the new edge slot
    and leaves the other edge bits alone. It lives on the states S with
    A inside S, whose components and cycles are those of S - A in G/A, plus
    b1(A) cycle slots that no map touches; its signs differ from those of
    G/A by a fixed sign per edge. So it is the tutte complex of G/A, shifted
    by |A| in height and in j, tensored with b1(A) free cycle factors.

    Refuses exactly as `build_complex(G, "yamada")` does (`state_slots`),
    before any minor is built. G/A has one vertex per component of [G:A]
    and the edges outside A, relabelled through the components. Cohomology
    does not depend on the edge order, so each minor's table is worked out
    once per call, for the minor with its edges oriented (min, max) and
    sorted. Free ranks add as integers, torsion as prime powers, so the sum
    is exact whatever the torsion.
    """
    components, _ = state_slots(G, "yamada")
    # minor -> its summands as ((i, j, k), free rank, torsion as prime powers)
    minors: dict[Multigraph, list[tuple[tuple[int, int, int], int, Counter[int]]]] = {}
    free: Counter[tuple[int, int, int]] = Counter()
    torsion: dict[tuple[int, int, int], Counter[int]] = {}
    for mask, (labels, b0) in enumerate(components):
        size = mask.bit_count()
        b1 = size - G.vertex_count + b0
        ends = ((labels[u], labels[v]) for e, (u, v) in enumerate(G.edges) if not mask >> e & 1)
        minor = Multigraph(b0, tuple(sorted((p, q) if p <= q else (q, p) for p, q in ends)))
        summands = minors.get(minor)
        if summands is None:
            table = cohomology(build_complex(minor, "tutte"))
            summands = minors[minor] = [
                (key, s.free_rank, prime_powers(s.torsion)) for key, s in table.summands.items()
            ]
        for (i, j, k), rank, powers in summands:
            for m in range(b1 + 1):
                copies = comb(b1, m)
                key = (i + size, j + size, k + m)
                free[key] += copies * rank
                if powers:
                    acc = torsion.setdefault(key, Counter())
                    for q, mult in powers.items():
                        acc[q] += copies * mult
    return CohomologyTable(
        variant="yamada",
        height_count=G.edge_count + 1,
        summands={
            key: Summand(free[key], invariant_factors(torsion.get(key, Counter())))
            for key in sorted(free)
        },
    )


def chain_map_defect(
    src: BigradedComplex, dst: BigradedComplex, maps: list[list[int]]
) -> int | None:
    """The lowest height i at which f o d_src^i != d_dst^i o f, or None
    when the map commutes with the differentials at every height.

    `maps[i][l]` is the image of basis element l of C^i(src) in
    C^i(dst), or -1 when l is killed. Entry (r, c) of f o d is the sum of
    the nonzeros (r', c) of d_src with f sending r' to r; entry (r, c) of
    d o f is the nonzero (r, f(c)) of d_dst. Both are summed exactly over
    the block nonzeros, and compared with zeros dropped.
    """
    if len(maps) != src.height_count or any(
        len(f) != src.rank(i) or min(f, default=-1) < -1 or max(f, default=-1) >= dst.rank(i)
        for i, f in enumerate(maps)
    ):
        raise ValueError("a chain map needs one target array per height of its source")
    for i in range(src.height_count - 1):
        lower, upper = maps[i], maps[i + 1]
        preimages: dict[int, list[int]] = {}
        for c, t in enumerate(lower):
            if t >= 0:
                preimages.setdefault(t, []).append(c)
        f_d = _exact_sum(((upper[r], c), v) for r, c, v in src.nonzeros(i) if upper[r] >= 0)
        d_f = _exact_sum(((r, c), v) for r, t, v in dst.nonzeros(i) for c in preimages.get(t, ()))
        if f_d != d_f:
            return i
    return None


def _exact_sum(terms: Iterable[tuple[tuple[int, int], int]]) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for key, v in terms:
        out[key] = out.get(key, 0) + v
    return {key: v for key, v in out.items() if v}


def summand_defect(
    small: CohomologyTable, large: CohomologyTable
) -> tuple[int, int, int] | None:
    """The lowest (i, j, k) at which the group of `small` is not isomorphic
    to a direct summand of the group of `large`, or None.

    A finitely generated abelian group is a summand of another exactly when
    its free rank is at most the other's and its torsion, split into
    prime powers, is a sub-multiset of the other's.
    """
    for key, s in small.sorted_items():
        other = large.summands.get(key, Summand(0))
        missing = prime_powers(s.torsion) - prime_powers(other.torsion)
        if s.free_rank > other.free_rank or missing:
            return key
    return None
