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
`chain_map_defect` works out f o d - d o f by relabelling the nonzeros
of the blocks through the arrays into one signed sum, with no matrix
product.
`summand_defect` compares two tables summand by summand, with torsion
split into prime powers.

`tutte_cohomology` gets the tutte table without eliminating the tutte
complex: the complex splits by cycle bits into shifted copies of the
cycle summands D_L, the chromatic complex on the up-set of the states
with b1 >= L, and this module alone decides which states a summand has.
H(D_0) is a closed form in the chromatic polynomials of the components
(`_kunneth`: knight moves, then the Kunneth formula), and only D_1,
D_2, ... are built, each by the private builder of `cube` as
`_build(G, "chromatic", states)`, and eliminated, from one enumeration
of the up-set of the states with b1 >= 1. The route is its refusal plus
a private core, `_tutte_tally`, which takes the (vertex count, state
histogram) pairs of the components and returns the sum as a `_Tally`.
Both routes refuse through the one chain-rank refusal of `cube`,
`_refuse`, which reads those histograms (`_component_histograms`) and
returns them, so the tutte route makes no pass over all 2^|E| states.
`yamada_cohomology` gets the yamada table without eliminating the yamada
complex: the complex is a direct sum, over the edge subsets A, of
shifted copies of the tutte complexes of the contractions G/A, so the
table is a sum of the tutte tables of the minors, and each class of
subsets with one minor, size and b0 is added once, times its count. The
one refusal of G bounds every minor, so each distinct minor's tally is
read once per call from `_tutte_tally`, with no refusal and no table of
its own. Torsion is added as prime powers: the Z/2 of D_0 as the power
2, the invariant factors of a D_L summand split by `prime_powers`, and
the sum turned back into invariant factors once, for the route's own
table, by `invariant_factors`; both live in `matrices` beside the
elimination that uses them too, and a summand or a key without torsion
skips them.
`cohomology(build_complex(G, variant))` stays the whole-complex route,
which `check` and the tests take.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import Mapping

from .cube import Bidegree, BigradedComplex, _build, _component_histograms, _refuse
from .laurent import BivariateLaurent
from .matrices import _eliminate, invariant_factors, prime_powers
from .multigraph import Multigraph, cyclic_state_components, state_components


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
        by_height: dict[int, list[dict]] = {i: [] for i in range(self.height_count)}
        for (i, j, k), s in self.sorted_items():
            by_height[i].append(
                {"bidegree": [j, k], "free_rank": s.free_rank, "torsion": list(s.torsion)}
            )
        return {
            "variant": self.variant,
            "groups": [{"i": i, "summands": summands} for i, summands in by_height.items()],
            "euler": self.euler().to_json_dict(),
        }


class _Tally:
    """A sum of summands, exact whatever the torsion: free ranks add as
    integers in `free` and torsion as prime powers in `torsion`, turned
    back into invariant factors only by `table`, at the end. Every key of
    `torsion` is a key of `free`. A key that no torsion reached gets ()
    without that round trip, and a summand without torsion is added with
    no powers at all. The tutte route's core (`_tutte_tally`) returns one,
    and the yamada route adds each minor's counters straight into its own.
    """

    def __init__(self) -> None:
        self.free: Counter[tuple[int, int, int]] = Counter()
        self.torsion: dict[tuple[int, int, int], Counter[int]] = {}

    def add(
        self, key: tuple[int, int, int], copies: int, rank: int, powers: Mapping[int, int]
    ) -> None:
        self.free[key] += copies * rank
        if powers:
            acc = self.torsion.setdefault(key, Counter())
            for q, mult in powers.items():
                acc[q] += copies * mult

    def table(self, variant: str, height_count: int) -> CohomologyTable:
        torsion = self.torsion
        summands = {
            key: Summand(rank, invariant_factors(torsion[key]) if key in torsion else ())
            for key, rank in sorted(self.free.items())
        }
        return CohomologyTable(variant, height_count, summands)


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
        for jk, dim in cx.dims[i].items():
            rank_out = block_data.get((i, jk), (0, ()))[0]
            rank_in, torsion = block_data.get((i - 1, jk), (0, ()))
            free = dim - rank_out - rank_in
            if free < 0:
                raise RuntimeError("rank bookkeeping went negative; complex is inconsistent")
            if free or torsion:
                summands[(i, jk[0], jk[1])] = Summand(free, torsion)
    return CohomologyTable(variant=cx.variant, height_count=heights, summands=summands)


def _knight_moves(
    V: int, histogram: dict[tuple[int, int], int]
) -> dict[tuple[int, int], tuple[int, int]]:
    """H^i_j(D_0) of a connected graph with V >= 1 vertices (loops allowed)
    and state histogram `histogram`, from its chromatic polynomial, as
    (i, j) -> (free rank, number of Z/2).

    Let c_j be the coefficient of t^j in P_G(1+t), which the state
    histogram gives as sum over S of (-1)^|S| (1+t)^b0(S). If P_G(2) != 0
    (G is bipartite) there is a pair, Z at (0, V-1) and at (0, V), and
    v0 = 1; otherwise v0 = 0. The rest is knight moves: KM(m) of them at
    m, each Z at (m, V-m), Z/2 at (m+1, V-m-1) and Z at (m+1, V-m-2), with
    KM(0) = c_V - v0, KM(1) = v0 - c_(V-1) and KM(m) = KM(m-2) +
    (-1)^m c_(V-m). A loop makes P_G = 0 and the table empty.

    Over Q this is the knight move of chromatic homology (Chmutov,
    Chmutov and Rong, "Knight move in chromatic cohomology", European J.
    Combin. 2008); over Z, chromatic homology with Z[t]/(t^2) has only Z/2
    torsion and is determined by P_G (Lowrance and Sazdanovic, "Chromatic
    homology, Khovanov homology, and torsion", Topology Appl. 2017). The
    recipe is those results in this package's grading, and the tests hold
    it to the eliminated k = 0 part of the tutte table. Counts that are
    not a table (a negative one, or a knight move left at the top) raise
    RuntimeError.
    """
    c = [0] * (V + 1)
    for (size, b0), count in histogram.items():
        for j in range(b0 + 1):
            c[j] += (-1) ** size * count * comb(b0, j)
    v0 = 1 if sum(c) else 0
    moves = [c[V] - v0, v0 - c[V - 1]]
    for m in range(2, V + 1):
        moves.append(moves[m - 2] + (-1) ** m * c[V - m])
    if min(moves) < 0 or any(moves[V - 1 :]):
        raise RuntimeError(f"knight-move counts {moves} of a component are not a table")
    out = {(0, V - 1): (1, 0), (0, V): (1, 0)} if v0 else {}
    for m, count in enumerate(moves):
        if count:
            for key, free, z2 in (
                ((m, V - m), count, 0),
                ((m + 1, V - m - 1), 0, count),
                ((m + 1, V - m - 2), count, 0),
            ):
                had_free, had_z2 = out.get(key, (0, 0))
                out[key] = (had_free + free, had_z2 + z2)
    return out


def _kunneth(
    components: list[tuple[int, dict[tuple[int, int], int]]]
) -> dict[tuple[int, int], tuple[int, int]]:
    """H^i_j(D_0) of the graph whose connected components have the given
    (vertex count, state histogram) pairs, as (i, j) -> (free rank, number
    of Z/2).

    D_0 is the chromatic complex (one Z[t]/(t^2) per component, no cycle
    slots; Helme-Guizon and Rong, AGT 2005), and the complex of G is the
    tensor product of those of its connected components, bidegrees adding.
    Each component's table comes from `_knight_moves`, and the Kunneth
    formula combines them: H^n is the sum over p + q = n of H^p (x) H^q
    plus the sum over p + q = n + 1 of Tor(H^p, H^q). Every torsion
    summand is Z/2, and Z/2 (x) Z/2 = Tor(Z/2, Z/2) = Z/2. The graph with
    no vertex has Z at (0, 0).
    """
    table = {(0, 0): (1, 0)}  # (i, j) -> (free rank, number of Z/2)
    for V, histogram in components:
        factor = _knight_moves(V, histogram)
        out: dict[tuple[int, int], tuple[int, int]] = {}
        for (p, j1), (f1, t1) in table.items():
            for (q, j2), (f2, t2) in factor.items():
                free, z2 = out.get((p + q, j1 + j2), (0, 0))
                out[(p + q, j1 + j2)] = (free + f1 * f2, z2 + f1 * t2 + t1 * f2 + t1 * t2)
                if t1 and t2:
                    free, z2 = out.get((p + q - 1, j1 + j2), (0, 0))
                    out[(p + q - 1, j1 + j2)] = (free, z2 + t1 * t2)
        table = {key: counts for key, counts in out.items() if counts != (0, 0)}
    return table


def tutte_cohomology(G: Multigraph) -> CohomologyTable:
    """The cohomology of the tutte complex of G, eliminating only its
    cycle summands D_L for L >= 1:

        H^i_(j,k)(tutte, G) = [k = 0] H^i_j(D_0)
            + sum over L >= 1 of C(L-1, k-1) * H^i_j(D_L).

    The per-edge maps of the tutte complex keep the cycle bits of a basis
    element, read as an integer c: a merge leaves them alone, and a new
    cycle slot is the highest and holds the unit. So the complex is the
    direct sum over c of the elements with cycle bits c. Those live on
    the states with b1 at least the bit length L of c, and there the maps
    act on the component bits alone, with the tutte signs: the summand is
    D_L, the chromatic complex (one Z[t]/(t^2) per component, no cycle
    slots) on the states with b1 >= L, shifted by popcount(c) in k. b1
    never falls as edges are added, so those states are an up-set and
    every face out of one of them stays in it. c = 0 gives D_0, and the
    C(L-1, k-1) integers with bit length L >= 1 and k bits set give the
    copies of D_L. L runs up to the largest b1 of a state, that of G,
    which is |E| - V + b0(G).

    Refuses exactly as `build_complex(G, "tutte")` does, by `_refuse`,
    with no state pass, and hands the component histograms that `_refuse`
    returns to `_tutte_tally`, which sums the right-hand side. Each D_L is
    a summand of the tutte complex, so the one refusal bounds its rank.
    """
    return _tutte_tally(G, _refuse(G, "tutte")).table("tutte", G.edge_count + 1)


def _tutte_tally(
    G: Multigraph, components: list[tuple[int, dict[tuple[int, int], int]]]
) -> _Tally:
    """The summands of the tutte cohomology of G (see `tutte_cohomology`)
    as a tally, given the (vertex count, state histogram) pair of each
    component of G (`cube._component_histograms`). It refuses nothing:
    its callers have bounded G.

    H(D_0) comes from the histograms (`_kunneth`) and is never
    eliminated, its Z/2 counts added as the prime power 2; the histograms
    give b0(G) too. Then the up-set of the states with b1 >= 1, the
    states of D_1, is enumerated once (`cyclic_state_components`), and
    before each D_L is built the map is narrowed to the states with b1 >=
    L, so each build sorts only its own states. Each narrowed map is an
    up-set, as `tutte_cohomology` shows, which is the precondition of
    `_build(G, "chromatic", states)`; the build does not check it, and the
    tests do. Each D_L is verified (bidegrees and d^2 = 0) and eliminated
    by `cohomology`, and only its summands with torsion are split into
    prime powers. A forest (b1(G) = 0) has no D_L and no such state, and
    gets no enumeration.
    """
    b1 = G.edge_count - G.vertex_count + len(components)
    states = cyclic_state_components(G) if b1 else {}
    tally = _Tally()
    for (i, j), (free, z2) in _kunneth(components).items():
        tally.add((i, j, 0), 1, free, {2: z2} if z2 else {})
    for L in range(1, b1 + 1):
        # D_L lives on the states with b1 >= L
        states = {m: s for m, s in states.items() if m.bit_count() - G.vertex_count + s[1] >= L}
        cx = _build(G, "chromatic", states)
        for (i, j, _), s in cohomology(cx).summands.items():
            powers = prime_powers(s.torsion) if s.torsion else {}
            for k in range(1, L + 1):
                tally.add((i, j, k), comb(L - 1, k - 1), s.free_rank, powers)
    return tally


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

    Refuses exactly as `build_complex(G, "yamada")` does, by `_refuse`,
    before any state is labelled or any minor is built, and that is the
    only refusal: no minor can need one.
    - The yamada complex of G is the direct sum above, so the tutte
      complex of each G/A, and each of its summands D_L, has a rank at
      most that of the yamada complex of G, which `_refuse` bounded.
    - G/A has b0(A) <= V vertices and at most |E| edges, so its
      components and `_kunneth` allocate nothing per vertex or per edge
      beyond what the refusal of G bounded.

    Then `state_components` labels the components of every state A. G/A
    has one vertex per component of [G:A] and the edges outside A,
    relabelled through the components. Cohomology does not depend on the
    edge order, so the minor is taken with its edges oriented (min, max)
    and sorted, and the masks A are counted by (b0, that minor's edges,
    |A|), which fix b1(A) = |A| - V + b0 too. One plain loop per mask,
    over the (bit, u, v) of each edge worked out once per call, makes that
    key. Each class is added to the sum once, times its count, and each
    distinct minor's tally is worked out once per call by `_tutte_tally`,
    in the order the minors are first met, with no table of its own: its
    free ranks and prime powers are added straight into the sum, so the
    sum is exact whatever the torsion.
    """
    _refuse(G, "yamada")
    pairs = [(1 << e, u, v) for e, (u, v) in enumerate(G.edges)]
    classes: dict[tuple[int, tuple[tuple[int, int], ...], int], int] = {}
    for mask, (labels, b0) in enumerate(state_components(G)):
        minor = []
        for bit, u, v in pairs:
            if not mask & bit:
                p, q = labels[u], labels[v]
                minor.append((p, q) if p <= q else (q, p))
        minor.sort()
        key = (b0, tuple(minor), mask.bit_count())
        classes[key] = classes.get(key, 0) + 1
    minors: dict[tuple[int, tuple[tuple[int, int], ...]], _Tally] = {}
    tally = _Tally()
    for (b0, edges, size), count in classes.items():
        summands = minors.get((b0, edges))
        if summands is None:
            H = Multigraph(b0, edges)
            summands = minors[b0, edges] = _tutte_tally(H, _component_histograms(H))
        b1 = size - G.vertex_count + b0
        for (i, j, k), rank in summands.free.items():
            powers = summands.torsion.get((i, j, k), {})
            for m in range(b1 + 1):
                tally.add((i + size, j + size, k + m), count * comb(b1, m), rank, powers)
    return tally.table("yamada", G.edge_count + 1)


def chain_map_defect(
    src: BigradedComplex, dst: BigradedComplex, maps: list[list[int]]
) -> int | None:
    """The lowest height i at which f o d_src^i != d_dst^i o f, or None
    when the map commutes with the differentials at every height.

    `maps[i][l]` is the image of basis element l of C^i(src) in
    C^i(dst), or -1 when l is killed. Entry (r, c) of f o d is the sum of
    the nonzeros (r', c) of d_src with f sending r' to r; entry (r, c) of
    d o f is the nonzero (r, f(c)) of d_dst. One pass over the block
    nonzeros of each adds the first and subtracts the second into one dict
    of exact entries of f o d - d o f, and the height fails when one of
    them is not zero.
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
        defect: dict[tuple[int, int], int] = {}
        for r, c, v in src.nonzeros(i):
            if (t := upper[r]) >= 0:
                defect[t, c] = defect.get((t, c), 0) + v
        for r, t, v in dst.nonzeros(i):
            for c in preimages.get(t, ()):
                defect[r, c] = defect.get((r, c), 0) - v
        if any(defect.values()):
            return i
    return None


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
