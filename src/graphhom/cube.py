"""The hypercube cochain complex of a multigraph.

Every edge subset S gets a free bigraded module C^S: a tensor product of
copies of Z[t]/(t^2), one per edge of S (yamada variant only) and one per
connected component of the spanning subgraph [G:S], and of copies of
Z[w]/(w^2), one per independent cycle. Corresponding cube edges carry
per-edge maps (unit insertion, component multiplication, cycle-factor
insertion); with the usual alternating signs these assemble into a
differential that preserves the bidegree and squares to zero, which
`build_complex` verifies at every height on every run: the bidegree on
every entry of each distinct per-edge map when that map is first worked
out, and d^2 = 0 one square face of the cube at a time, on one row of
small integer codes per state (rule id and sign of each map out of it),
with a verdict memo so that a face whose four codes were seen before
costs one set lookup. Both checks run their per-entry work at C level:
one `operator.itemgetter` call reads every entry's bidegree code, or
composes two maps, with no Python step per entry; a per-entry walk
runs only to name the entry of a fault. The per-bidegree blocks are
each an `IntMatrix` over three flat arrays of row, column and sign.
They are not stored: the complex keeps the states, their slots and one
target array per distinct rule key, which fix the differential, and
`BigradedComplex.blocks` writes the blocks of a height from those arrays
each time the height is read, working out block positions for the maps
of that height alone. So
`dump --height i` verifies the whole cube but works out positions and
writes blocks only for height i, and a reader that walks the heights
upward holds one height's blocks at a time.
`build_complex` builds the whole complex of a variant, on every state.
Its private builder `_build` takes the map of states instead, and
`homology.tutte_cohomology` calls it to build the chromatic complex (one
Z[t]/(t^2) per component, no edge or cycle factors) on the up-set of
each cycle summand, whose closure under adding an edge that route
proves. `_refuse` is the one chain-rank refusal: `build_complex` and
both cohomology routes of `homology` refuse through it, by the rank that
the state histograms of the components give, before any state is
labelled, so every command that asks for a complex refuses alike.

A state S is its edge bitmask, and the components of [G:S] come from
`multigraph.state_components`, which derives every state from its parent
state, or from the map of states that `homology.tutte_cohomology` hands
over to `_build`, which need not hold every state. A basis element
of C^S picks 1 or the generator in every tensor slot, so it is a bitmask
too, and its index in C^S is that bitmask read as an integer: bit k is
slot k, a set bit is the generator. Slots are edge factors by ascending
edge index, then component factors by ascending minimal vertex, then
cycle factors. The bidegree of an index is (number of set edge and
component bits, number of set cycle bits). States inside one height sit
in ascending bitmask order. These conventions pin every matrix entry, so
two runs (or two machines) produce identical artifacts. The build counts
how many basis elements of each bidegree every height has, from the slot
counts of its states; the positions of those elements
(`bidegree_index`), one array per bidegree, are written for a height the
first time it is read and then kept, so `dump` and `cohomology`, which
read only counts and blocks, write none.

Every map here sends each basis element to at most one basis element,
with coefficient 1. So each is a target array: entry l is the index of
the image of element l, or -1 when the map kills it. A per-edge map
(`_edge_rule`) is one such array with one trailing -1; a chain map
between complexes (`phi_psi` between the two variants, `projection_map`
onto a subgraph) is a list of them, one per height.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import chain
from math import comb
from operator import itemgetter, ne
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .laurent import ZERO, BivariateLaurent
from .matrices import INDEX_TYPECODE, IntMatrix
from .multigraph import Multigraph, connected_components, state_components, state_histogram

Bidegree = tuple[int, int]
VARIANTS = ("yamada", "tutte")

# Largest total chain rank (sum over all states of rank C^S) that
# `build_complex` agrees to build; larger complexes are refused up front.
MAX_CHAIN_RANK = 1 << 20


# A lower bound with more bits than this is stated as 2^m, its largest
# term: the exact sum would take O(V)-bit integers to compute, and Python
# refuses to print an integer of more than 4300 digits.
_EXACT_FLOOR_BITS = 1024


def _refuse_by_floor(vertex_count: int, edge_count: int, yamada: bool) -> None:
    """Raise ValueError if the total chain rank is provably over the limit
    from (V, |E|, variant) alone.

    A state with k edges has b0 >= max(1, V - k) components (b0 = 0 when
    V = 0) and b1 = k - V + b0 cycles, so rank C^S = 2^(lambda + b0 + b1),
    with lambda = k in the yamada variant and 0 in the tutte one, is at
    least 2^(lambda + k - V + 2 * min b0). The bound is the sum of that
    over the C(|E|, k) states of each size. Its exponents are small
    integers, and the sum has at most (largest exponent + |E| + 1) bits,
    so it is only added up when that is at most `_EXACT_FLOOR_BITS`.
    """
    exponents = [
        (k if yamada else 0) + k - vertex_count + 2 * max(min(vertex_count, 1), vertex_count - k)
        for k in range(edge_count + 1)
    ]
    top = max(exponents)
    if top + edge_count > _EXACT_FLOOR_BITS:
        # With V > 0, top is at least the exponents of k = 0 and k = |E|,
        # V and |E| - V + 2, so top > _EXACT_FLOOR_BITS / 3 > log2 of the limit.
        floor = f"2^{top}"
    else:
        total = sum(comb(edge_count, k) << x for k, x in enumerate(exponents))
        if total <= MAX_CHAIN_RANK:
            return
        floor = str(total)
    raise ValueError(
        f"chain complex has rank at least {floor}, over the limit of {MAX_CHAIN_RANK}"
    )


def _refuse(G: Multigraph, variant: str) -> list[tuple[int, dict[tuple[int, int], int]]]:
    """Raise ValueError if the complex of G in `variant` has a total chain
    rank over `MAX_CHAIN_RANK`; otherwise return the (vertex count, state
    histogram) of each connected component of G, in the order of
    `connected_components`.

    The one chain-rank refusal of the package: every route to a complex
    or its cohomology refuses through it, so they all refuse alike. First
    by the lower bound of `_refuse_by_floor`, which bounds V before
    `connected_components` allocates per vertex, then by the exact rank,
    the sum over the states S of 2^(slots), with (edge and component
    slots, cycle slots) = (lambda + b0, |S| - V + b0), read off the state
    histograms of the components with no state pass. The complex of G is
    the tensor product of those of its components, so that sum is the
    product of theirs. The tutte route reuses the histograms for H(D_0).
    """
    yamada = variant == "yamada"
    _refuse_by_floor(G.vertex_count, G.edge_count, yamada)
    per_edge = 2 if yamada else 1  # lambda + |S| = per_edge * |S|
    components = [(H.vertex_count, state_histogram(H)) for H in connected_components(G)]
    rank = 1
    for V, hist in components:
        rank *= sum(count << per_edge * size + 2 * b0 - V for (size, b0), count in hist.items())
    if rank > MAX_CHAIN_RANK:
        raise ValueError(f"chain complex has rank {rank}, over the limit of {MAX_CHAIN_RANK}")
    return components


def _edge_rule(mask: int, e: int, p: int, q: int, size: int, yamada: bool) -> list[int]:
    """The target array of the unsigned map C^S -> C^(S+e): entry x is the
    index of the image of x, or -1 when x is killed, and one trailing -1.

    `mask` is S, `size` the rank of C^S, and p, q are the components of
    [G:S] holding the endpoints of e. Every coefficient is 1. In the
    yamada variant a 0 bit (the unit) is inserted at e's edge slot k:
    x goes to (x >> k << k + 1) | (x & 2^k - 1). With step = 2^k, the
    sources with low bits l go to l, l + 2 step, ..., and the run of
    sources from h, a multiple of step, to 2h onwards; the array is
    written by one slice assignment of a range per l, or per such run,
    whichever is fewer, so about sqrt(size) Python steps, not size. If
    p == q the new cycle slot is the highest bit of the target and holds
    the unit, so nothing else moves. Otherwise the component bits of p
    and q are OR-ed into the lower one, elements with both set are
    killed (t * t = 0), and the higher one is removed, which moves the
    later components down one slot.
    """
    if yamada:
        comp0 = mask.bit_count() + 1  # the target's edge slots come first
        step = 1 << (mask & ((1 << e) - 1)).bit_count()
        targets = [0] * size
        if step * step <= size:
            for low in range(step):
                targets[low::step] = range(low, 2 * size, 2 * step)
        else:
            for high in range(0, size, step):
                targets[high : high + step] = range(2 * high, 2 * high + step)
    else:
        comp0 = 0
        targets = list(range(size))
    if p == q:
        return targets + [-1]
    lo, hi = comp0 + min(p, q), comp0 + max(p, q)
    lo_bit, hi_bit, below_hi = 1 << lo, 1 << hi, (1 << hi) - 1
    return [
        (y >> hi + 1 << hi) | (y & below_hi) if not y & hi_bit
        else -1 if y & lo_bit
        else (y >> hi + 1 << hi) | (y & below_hi) | lo_bit
        for y in targets
    ] + [-1]


def _by_popcount(width: int) -> list[list[int]]:
    """The integers below 2^width grouped by popcount: entry w holds those
    with w set bits, in ascending order. Not cached: it takes 2^width
    steps where `_listing` writes 2^(j + k) indices, and a table kept for
    the process would outlive every complex that needed it."""
    groups: list[list[int]] = [[] for _ in range(width + 1)]
    for x in range(1 << width):
        groups[x.bit_count()].append(x)
    return groups


def _listing(slots: tuple[int, int]) -> list[int]:
    """The indices of a chain module with `slots` (edge and component
    slots, cycle slots) listed bidegree after bidegree, in order of the
    bidegrees' first indices, each bidegree's indices in ascending order.

    An index of bidegree (p, q) is h << j | l with l below 2^j of
    popcount p and h below 2^k of popcount q, so the indices come
    straight from the popcount tables of the two widths (`_by_popcount`),
    ascending when h and l are. The first index of (p, q) is
    (2^q - 1) << j | (2^p - 1), which grows with p in the low j bits and
    with q above them, so q then p is the order of first indices.
    `_bidegree_runs` bounds the run of each bidegree.
    """
    j_slots, k_slots = slots
    lows = _by_popcount(j_slots)
    listing: list[int] = []
    for hs in _by_popcount(k_slots):
        for ls in lows:
            for h in hs:
                high = h << j_slots
                listing += [high | l for l in ls] if high else ls
    return listing


def _bidegree_runs(slots: tuple[int, int]) -> list[tuple[Bidegree, int, int]]:
    """The bidegrees (p, q) of a chain module with `slots`, in the order of
    `_listing`, each with the bounds of its run there, C(j, p) * C(k, q)
    indices long. The run of (p, q) is entry q * (j + 1) + p."""
    j_slots, k_slots = slots
    runs = []
    end = 0
    for q in range(k_slots + 1):
        for p in range(j_slots + 1):
            start, end = end, end + comb(j_slots, p) * comb(k_slots, q)
            runs.append(((p, q), start, end))
    return runs


def _popcounts(width: int) -> list[int]:
    """The popcount of every integer below 2^width, in order: the table of
    width w + 1 is that of width w followed by it plus one."""
    counts = [0]
    for _ in range(width):
        counts += [c + 1 for c in counts]
    return counts


def _bidegree_codes(slots: tuple[int, int]) -> list[int]:
    """Entry x: the bidegree (p, q) of index x of a chain module with
    `slots`, as the int p + 32 * q. Every module under the rank limit has
    p <= 20, so two modules' codes are equal exactly when their
    bidegrees are, and most codes are small ints that Python shares.
    Index h << j | l takes the row of popcount(h), made once per q.
    `build_complex` adds a trailing -1 to each table, so that a killed
    entry (target -1) reads -1, which no bidegree code is."""
    j_slots, k_slots = slots
    lows = _popcounts(j_slots)
    rows = [[(q << 5) + p for p in lows] for q in range(k_slots + 1)]
    codes: list[int] = []
    for q in _popcounts(k_slots):
        codes += rows[q]
    return codes


def _places(listing: list[int]) -> list[int]:
    """Entry x: the place of index x in `listing` (`_listing`), then one
    trailing -1, which a killed element (target -1) reads."""
    places = [-1] * (len(listing) + 1)
    for place, x in enumerate(listing):
        places[x] = place
    return places


def _block_groups(
    target: Sequence[int],
    listing: list[int],
    runs: list[tuple[Bidegree, int, int]],
    places: list[int],
) -> list[tuple[Bidegree, list[int], Sequence[int]]]:
    """The entries of the map with `target` array, out of a chain module
    with `listing` and `runs` (`_listing`, `_bidegree_runs`) into one with
    `places` (`_places`): per source bidegree with an entry, that bidegree,
    the places of the targets of its entries and the places of their
    sources, in ascending source order.

    The targets' places are read in one pass over the listing, and each
    bidegree takes its slice, with its own run as the sources' places.
    Only a map that kills elements (place -1) walks them again, to keep
    the others.
    """
    rows = [places[target[x]] for x in listing]
    if -1 not in rows:
        return [(jk, rows[start:end], range(start, end)) for jk, start, end in runs]
    groups = []
    for jk, start, end in runs:
        kept, cols = [], []
        for col in range(start, end):
            row = rows[col]
            if row >= 0:
                kept.append(row)
                cols.append(col)
        if cols:
            groups.append((jk, kept, cols))
    return groups


@dataclass
class BigradedComplex:
    """Cochain complex with per-height bidegree counts and index, and
    per-bidegree blocks.

    `dims[i][(j,k)]` is the number of basis elements of C^i of bidegree
    (j, k), for every bidegree present at height i. `bidegree_index[i][(j,k)]`
    holds, in an ascending `array`, their positions in C^i. `blocks[i]`
    holds one block for every bidegree present at height i or i + 1, empty
    ones included: `blocks[i][(j,k)]` is the signed differential
    C^i -> C^(i+1) restricted to bidegree (j, k), as an `IntMatrix` of +-1
    entries, row r and column c standing for positions
    `bidegree_index[i+1][(j,k)][r]` and `bidegree_index[i][(j,k)][c]`.
    `nonzeros` reads the entries of d^i in global positions from them.
    `build_complex` hands over two `HeightBlocks`: the index writes a
    height the first time it is read and keeps it, the blocks write a
    height from the build's target arrays each time it is read. Any sequence
    of such dicts, one per height, will do, so a reader that reads the
    blocks more than once can keep them with
    `dataclasses.replace(cx, blocks=list(cx.blocks))`.
    """

    variant: str
    graph: Multigraph
    state_offsets: list[dict[int, int]]
    state_sizes: list[dict[int, int]]
    dims: list[dict[Bidegree, int]]
    bidegree_index: Sequence[dict[Bidegree, array]]
    blocks: Sequence[dict[Bidegree, IntMatrix]]

    @property
    def height_count(self) -> int:
        return len(self.dims)

    def rank(self, i: int) -> int:
        if 0 <= i < self.height_count:
            return sum(self.dims[i].values())
        return 0

    def nonzeros(self, i: int) -> Iterator[tuple[int, int, int]]:
        """(row, col, value) of every nonzero of d^i: C^i -> C^(i+1) in the
        global basis order, from the blocks through `bidegree_index` (copied
        to lists per block: reading an array makes an int per nonzero), so
        heights i and i + 1 of the index are written if they were not yet;
        nothing when i is outside the stored heights. The blocks and the
        index are read on the call, and the nonzeros come from a C-level
        chain of one `zip` per block, with no Python step per nonzero."""
        if not 0 <= i < len(self.blocks):
            return iter(())
        row_index, col_index = self.bidegree_index[i + 1], self.bidegree_index[i]
        return chain.from_iterable(
            zip(
                map(list(row_index.get(jk, ())).__getitem__, block.row_of),
                map(list(col_index.get(jk, ())).__getitem__, block.col_of),
                block.val_of,
            )
            for jk, block in self.blocks[i].items()
        )

    def dims_at(self, i: int) -> dict[Bidegree, int]:
        if not 0 <= i < self.height_count:
            return {}
        return dict(self.dims[i])

    def qdim(self, i: int) -> BivariateLaurent:
        """Graded dimension of C^i, as a polynomial in (t, w)."""
        return BivariateLaurent(self.dims_at(i))


def _check_faces(
    masks: Iterable[int],
    n: int,
    below: dict[int, tuple[int, ...]],
    above: dict[int, tuple[int, ...]],
    targets: list[list[int]],
    i: int,
) -> None:
    """Raise unless every square face from height i - 1 to i + 1 anticommutes.

    `below` and `above` hold the code rows of the states of heights i - 1
    and i: entry t of the row of S is 2 * (rule id) + (parity of the
    number of edges of S below e) for the t-th edge e outside S, in
    ascending order, and `targets[rule id]` is that rule's target array.
    The piece S -> S+e+f of d^i d^(i-1) is the sum of the two paths round
    the face; each path sends x to at most one element, with the product
    of its signs. So the piece is zero exactly when both paths send every
    x to the same element (or both kill it) and, unless every x is
    killed, the two sign products are opposite: the four parities have an
    odd sum.

    For e < f, the t-th and u-th edges outside S, the four maps of the
    face are entries t and u of the row of S, entry u - 1 of the row of
    S+e and entry t of the row of S+f. Whether the paths agree, and
    whether some x survives them, is worked out once per quadruple of rule
    ids, by composing the arrays at C level (`operator.itemgetter`: the
    path through rule a then rule b is `itemgetter(*a)(b)`, a tuple); the
    sign test once per quadruple of codes. A quadruple of codes
    that passed both is kept in a verdict memo, so every other face with
    that quadruple costs one set lookup.

    The faces out of S read exactly the row of S and the rows of its
    up-neighbours S+e, in edge order. So a state whose rows equal, code
    for code, those of a state already judged has only faces already
    judged, with the same quadruples and verdicts, and is skipped: one
    lookup of its rows (tuples, to be hashed) instead of one per face.
    """
    error = f"d^2 != 0 between heights {i - 1} and {i + 1}"
    survives: dict[tuple[int, int, int, int], bool] = {}
    good: set[tuple[int, int, int, int]] = set()
    judged: set[tuple[tuple[int, ...], ...]] = set()
    for mask in masks:
        row = below[mask]
        ups = [above[mask | 1 << e] for e in range(n) if not mask >> e & 1]
        pattern = (row, *ups)
        if pattern in judged:
            continue
        judged.add(pattern)
        for t, a in enumerate(row):
            t1 = t + 1
            for b, c, up_f in zip(ups[t][t:], row[t1:], ups[t1:]):
                d = up_f[t]
                face = (a, b, c, d)
                if face in good:
                    continue
                ids = (a >> 1, b >> 1, c >> 1, d >> 1)
                some = survives.get(ids)
                if some is None:
                    path_a, path_b, path_c, path_d = map(targets.__getitem__, ids)
                    # Every array holds at least one entry and its trailing
                    # -1, so itemgetter of it always returns a tuple.
                    ab = itemgetter(*path_a)(path_b)
                    if ab != itemgetter(*path_c)(path_d):
                        raise RuntimeError(error)
                    some = survives[ids] = ab.count(-1) != len(ab)
                if some and not (a ^ b ^ c ^ d) & 1:
                    raise RuntimeError(error)
                good.add(face)


class HeightBlocks(Sequence):
    """One dict per height of a complex, written by `write(i)` each time
    height i is read. The blocks' writer keeps nothing, so a reader that
    reads a height more than once keeps what it read; the index's writer
    is cached, so each height is written once, on its first read. A slice
    reads the heights it names, in its order, into a list."""

    def __init__(self, write: Callable[[int], dict], count: int) -> None:
        self._write, self._count = write, count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i: int | slice) -> dict | list[dict]:
        # range indexing takes negative indices and raises IndexError past
        # the end, where iteration stops; sliced, it gives the heights named
        heights = range(self._count)[i]
        return [*map(self._write, heights)] if isinstance(i, slice) else self._write(heights)


def build_complex(G: Multigraph, variant: str) -> BigradedComplex:
    """Verify the whole complex of G in `variant`, one of `VARIANTS`, at
    every height, and return it with per-bidegree blocks that are written
    from the kept target arrays each time a height is read (`_build`).

    Refuses, before any state is labelled, complexes whose total chain
    rank exceeds `MAX_CHAIN_RANK` (`_refuse`). Then `state_components`
    labels every state, giving the component of each endpoint that the
    per-edge maps need, as a map mask -> (labels, b0) that holds every
    state.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    _refuse(G, variant)
    return _build(G, variant, dict(enumerate(state_components(G))))


def _build(
    G: Multigraph, variant: str, states: Mapping[int, tuple[list[int], int]]
) -> BigradedComplex:
    """The complex of G in `variant` on the states of the map `states`
    (mask -> (labels, b0)), verified at every height, with per-bidegree
    blocks that are written from the kept target arrays each time a
    height is read.

    `variant` is one of `VARIANTS`, or "chromatic": one Z[t]/(t^2) per
    component and no cycle slots (slots (b0, 0)), with the rule keys,
    maps and signs of the tutte complex. The build makes no state pass
    and no refusal of its own: the caller has passed G through `_refuse`.
    The complex lives on exactly the states of the map, which it takes in
    any order and sorts by mask within each height. Precondition: the map
    is closed under adding an edge, that is, with each state it holds
    every state with one more edge. The map of all states that
    `build_complex` hands over is, and so is each up-set that
    `homology.tutte_cohomology` hands over, which that route proves; the
    build does not check it.

    The build counts the basis elements of each bidegree at each height
    (`dims`) from the slot counts of its states, one small dict per
    height. The positions of those elements, `bidegree_index[i]`, are
    written the first time height i is read (`HeightBlocks` over a cached
    writer) and kept; only `nonzeros` and direct readers read them, so
    `dump` and `cohomology` write none.

    The map of edge e out of state S is worked out once per distinct key
    of exactly what `_edge_rule` reads, and kept for the life of the
    complex: |S| and the insert position of e in the yamada variant (the
    rule reads e only through the latter), the unordered pair of endpoint
    components or None for one component, and the slots of S, which fix
    the rank of C^S. With the variant, these also fix the slots of S+e.
    When first worked out, each entry of the map's target array that is
    not killed is checked to preserve the bidegree, read off a table of
    codes per slot counts (`_bidegree_codes`, with a trailing -1) that
    lives only as long as the build. One `itemgetter` call reads the
    code of every target, a killed one reading -1, and the map passes
    when the entries whose code differs from their source's are exactly
    the killed ones. Only a map that fails is walked entry by entry, in
    ascending source order, to name its first faulty entry. The array
    is kept as the rule gave it, under a rule id, which numbers the keys
    in the order they are first seen. Heights are walked in order, and the walk
    of height i writes one code row per state S: one int per edge e
    outside S, in edge order, 2 * (rule id of (S, e)) + (parity of the
    edges of S below e), which fixes the signed map.
    Once height i is walked, the faces from height i - 1 to i + 1 are
    checked to anticommute (`_check_faces`) on the rows of heights i - 1
    and i, and the rows of height i - 1 go. Edges with one key share one
    map, so the face check tests the differential as the blocks will hold
    it rather than each edge's map apart. Any failure raises
    RuntimeError, whichever heights are read later. The rows are dropped
    once the last face is checked; the ids and the target arrays stay for
    the blocks.

    Reading `blocks[i]` (`HeightBlocks`) walks height i again. A module's
    indices are listed bidegree after bidegree (`_listing`, with the run
    of each bidegree from `_bidegree_runs`), and the first (S, e) of each
    rule key met derives that map's groups from its target array
    (`_block_groups`): per bidegree, the places of its entries in the
    listings of S+e and of S, the former read off `_places`. Listings and
    places are worked out only for the slot counts that the maps of
    height i read, once per read. Every (S, e) then extends, per bidegree
    of its map, three arrays with those places shifted to positions among
    the elements of that bidegree at the height: plus the number of such
    elements in the states before S (or S+e), less the start of the
    bidegree's run, found once per state by running counts over the
    states of each height in mask order. `IntMatrix.from_triplets` checks
    and adopts them. The groups, listings and places live only as long as
    the read, so reading blocks does not grow what the complex holds, and
    each read writes exactly the blocks that an eager build would.
    """
    n = G.edge_count
    yamada, cycles = variant == "yamada", variant != "chromatic"
    # Per state of the complex: (edge + component slots, cycle slots).
    slots: dict[int, tuple[int, int]] = {}
    masks_by_height: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in sorted(states):
        size, b0 = mask.bit_count(), states[mask][1]
        slots[mask] = ((size if yamada else 0) + b0, size - G.vertex_count + b0 if cycles else 0)
        masks_by_height[size].append(mask)

    # Per slot counts: the bidegrees in order of their first index, each with
    # the bounds of its run of indices (`_bidegree_runs`).
    runs_of = {shape: _bidegree_runs(shape) for shape in set(slots.values())}

    offsets: list[dict[int, int]] = []
    sizes: list[dict[int, int]] = []
    dims: list[dict[Bidegree, int]] = []
    for masks in masks_by_height:
        offset_map: dict[int, int] = {}
        size_map: dict[int, int] = {}
        offset = 0
        for mask in masks:
            offset_map[mask] = offset
            size_map[mask] = size = 1 << sum(slots[mask])
            offset += size
        # Shapes in order of their first state, so the bidegrees come in the
        # order of their first element, as in the index.
        counts: dict[Bidegree, int] = {}
        for shape, count in Counter(map(slots.__getitem__, masks)).items():
            for jk, start, end in runs_of[shape]:
                counts[jk] = counts.get(jk, 0) + count * (end - start)
        offsets.append(offset_map)
        sizes.append(size_map)
        dims.append(counts)

    @cache
    def index_at(h: int) -> dict[Bidegree, array]:
        # slots -> each bidegree with its indices, the runs of `_listing`
        members_of: dict[tuple[int, int], list] = {}
        index: dict[Bidegree, array] = {}
        for mask, offset in offsets[h].items():
            shape = slots[mask]
            if shape not in members_of:
                listing = _listing(shape)
                members_of[shape] = [(jk, listing[start:end]) for jk, start, end in runs_of[shape]]
            for jk, xs in members_of[shape]:
                index.setdefault(jk, array(INDEX_TYPECODE)).extend(map(offset.__add__, xs))
        return index

    edges = [(e, 1 << e, (1 << e) - 1, u, v) for e, (u, v) in enumerate(G.edges)]
    # rule key -> rule id, which numbers the keys in the order they are first
    # seen, and rule id -> target of each source or -1 when it is killed,
    # with an extra trailing -1 so that a composite looks up a killed
    # element at index -1 and gets -1 back
    rule_ids: dict[tuple, int] = {}
    targets: list[list[int]] = []

    def walk(i: int) -> Iterator[tuple[int, int, int, tuple]]:
        """S, e, the parity of the number of edges of S below e and the rule
        key of every (S, e) out of height i."""
        for mask in offsets[i]:
            comp_of = states[mask][0]
            src_slots = slots[mask]
            for e, bit, lower, u, v in edges:
                if mask & bit:
                    continue
                insert = (mask & lower).bit_count()
                p, q = comp_of[u], comp_of[v]
                pair = (p, q) if p < q else (q, p) if q < p else None
                key = (i, insert, pair, src_slots) if yamada else (pair, src_slots)
                yield mask, e, insert & 1, key

    # per slot counts: the bidegree code of each index, for the checks alone,
    # then -1, which a killed entry (target -1) reads (a list made by `+` has
    # no spare room, as one grown by `append` would)
    bidegrees = {shape: _bidegree_codes(shape) + [-1] for shape in set(slots.values())}

    def checked_target(i: int, mask: int, e: int) -> list[int]:
        """The target array of the map of edge e out of S = mask, at height
        i, from `_edge_rule`, each entry that is not killed checked to
        preserve the bidegree."""
        dst = mask | 1 << e
        src_codes, dst_codes = bidegrees[slots[mask]], bidegrees[slots[dst]]
        comp_of, (u, v) = states[mask][0], G.edges[e]
        target = _edge_rule(mask, e, comp_of[u], comp_of[v], sizes[i][mask], yamada)
        # A killed entry reads -1, which differs from every code, and the
        # trailing -1 meets the source table's trailing -1: the map keeps
        # every bidegree exactly when the killed entries are all that differ.
        seen = itemgetter(*target)(dst_codes)
        if sum(map(ne, seen, src_codes)) == seen.count(-1) - 1:
            return target
        for x, y in enumerate(target):
            if y >= 0 and dst_codes[y] != src_codes[x]:
                r, c = offsets[i + 1][dst] + y, offsets[i][mask] + x
                raise RuntimeError(
                    f"differential d^{i} does not preserve the bidegree at entry ({r},{c})"
                )
        return target

    below: dict[int, tuple[int, ...]] = {}
    for i in range(n):
        # S -> its code row: 2 * rule id + parity per edge outside S, in order
        codes: dict[int, list[int]] = {mask: [] for mask in offsets[i]}
        for mask, e, odd, key in walk(i):
            rule = rule_ids.get(key)
            if rule is None:
                rule = rule_ids[key] = len(targets)
                targets.append(checked_target(i, mask, e))
            codes[mask].append(2 * rule + odd)
        rows = {mask: tuple(row) for mask, row in codes.items()}
        if i > 0:
            _check_faces(offsets[i - 1], n, below, rows, targets, i)
        below = rows

    def shifts(h: int) -> dict[int, list[Callable[[int], int]]]:
        """Per state of height h, per bidegree of its shape in the order of
        its runs (`_bidegree_runs`): maps the place of an element of that
        bidegree in the state's listing (`_listing`) to its position among
        the elements of that bidegree at height h, by adding the number of
        such elements in the states before it, less the start of the run."""
        seen = dict.fromkeys(dims[h], 0)
        out = {}
        for mask in offsets[h]:
            out[mask] = adders = []
            for jk, start, end in runs_of[slots[mask]]:
                before = seen[jk]
                adders.append((before - start).__add__)
                seen[jk] = before + end - start
        return out

    def write(i: int) -> dict[Bidegree, IntMatrix]:
        rows_dims, cols_dims = dims[i + 1], dims[i]
        triplets = {
            jk: (array(INDEX_TYPECODE), array(INDEX_TYPECODE), array("b"))
            for jk in cols_dims.keys() | rows_dims.keys()
        }
        extends = {jk: (t[0].extend, t[1].extend, t[2].extend) for jk, t in triplets.items()}
        dst_shifts, src_shifts = shifts(i + 1), shifts(i)
        # slots -> the indices listed bidegree after bidegree (`_listing`),
        # and the place of each index in that listing (`_places`)
        listings: dict[tuple[int, int], list[int]] = {}
        places_of: dict[tuple[int, int], list[int]] = {}
        # Runs of +1 and of -1 signs by length, shared by the groups.
        signs_of_length: dict[int, tuple[array, array]] = {}
        # rule key -> one group per bidegree (p, q) of its map: the extends
        # of that bidegree's triplets, its run in S+e and in S (q * (j + 1)
        # + p in a shape of j edge and component slots), the places of the
        # entries in S+e and in S, and their signs for an even and an odd
        # number of edges of S below e
        groups_of: dict[tuple, list[tuple]] = {}
        for mask, e, odd, key in walk(i):
            dst = mask | 1 << e
            groups = groups_of.get(key)
            if groups is None:
                src_slots, dst_slots = slots[mask], slots[dst]
                for shape in src_slots, dst_slots:
                    if shape not in listings:
                        listings[shape] = _listing(shape)
                places = places_of.get(dst_slots)
                if places is None:
                    places = places_of[dst_slots] = _places(listings[dst_slots])
                src_width, dst_width = src_slots[0] + 1, dst_slots[0] + 1
                groups = groups_of[key] = []
                for (p, q), rows, cols in _block_groups(
                    targets[rule_ids[key]], listings[src_slots], runs_of[src_slots], places
                ):
                    signs = signs_of_length.get(len(rows))
                    if signs is None:
                        signs = signs_of_length[len(rows)] = (
                            array("b", [1]) * len(rows),
                            array("b", [-1]) * len(rows),
                        )
                    run_dst, run_src = q * dst_width + p, q * src_width + p
                    groups.append((*extends[p, q], run_dst, run_src, rows, cols, signs))
            dst_shift, src_shift = dst_shifts[dst], src_shifts[mask]
            for extend_rows, extend_cols, extend_vals, run_dst, run_src, rows, cols, signs in groups:
                extend_rows(map(dst_shift[run_dst], rows))
                extend_cols(map(src_shift[run_src], cols))
                extend_vals(signs[odd])
        return {
            jk: IntMatrix.from_triplets(rows_dims.get(jk, 0), cols_dims.get(jk, 0), *t)
            for jk, t in triplets.items()
        }

    return BigradedComplex(
        variant=variant,
        graph=G,
        state_offsets=offsets,
        state_sizes=sizes,
        dims=dims,
        bidegree_index=HeightBlocks(index_at, n + 1),
        blocks=HeightBlocks(write, n),
    )


def graded_euler(cx: BigradedComplex) -> BivariateLaurent:
    """Alternating sum of the graded dimensions of the chain groups."""
    return sum(((-1) ** i * cx.qdim(i) for i in range(cx.height_count)), ZERO)


def projection_map(
    source: BigradedComplex, gamma: Iterable[int]
) -> tuple[BigradedComplex, list[list[int]]]:
    """The target complex and, per height, the target array of the
    projection onto the summands of `source` with S inside gamma.

    Entry l of the array at height i is the image of basis element l of
    C^i, or -1 when it is killed: an element of a state inside gamma goes
    to the same element of that state in the target, any other is killed.
    The target complex lives on the subgraph with gamma's edges in their
    induced order (all vertices retained, so states and their chain
    modules match verbatim), in the source's variant. Its chain rank is
    at most the source's, so it is never refused.
    """
    G = source.graph
    gamma_sorted = sorted(set(gamma))
    if any(not 0 <= e < G.edge_count for e in gamma_sorted):
        raise ValueError("gamma is not a subset of the edge indices")
    sub = Multigraph(G.vertex_count, tuple(G.edges[e] for e in gamma_sorted))
    dst = build_complex(sub, source.variant)
    gamma_mask = sum(1 << e for e in gamma_sorted)

    maps: list[list[int]] = []
    for i in range(source.height_count):
        targets = [-1] * source.rank(i)
        for mask, src_off in source.state_offsets[i].items():
            if mask & ~gamma_mask:
                continue
            dst_mask = sum(1 << t for t, e in enumerate(gamma_sorted) if mask >> e & 1)
            dst_off = dst.state_offsets[i][dst_mask]
            size = source.state_sizes[i][mask]
            targets[src_off : src_off + size] = range(dst_off, dst_off + size)
        maps.append(targets)
    return dst, maps


def phi_psi(
    tutte: BigradedComplex, yamada: BigradedComplex
) -> tuple[list[list[int]], list[list[int]]]:
    """Per-height target arrays of phi: C_T -> C_Y and psi: C_Y -> C_T,
    between the two variants' complexes of one graph.

    Entry l of a map's array at height i is the image of basis element l,
    or -1 when the map kills it. phi inserts the unit in every edge slot;
    psi evaluates the counit on every edge slot, so psi[i][phi[i][l]] == l
    at every height. Edge slots are the low |S| bits of a yamada index, so
    phi sends a tutte index l to l << |S|, and psi keeps exactly the
    yamada indices whose edge bits are all 0 (the counit kills the
    generator) and shifts them back. Raises ValueError unless the
    complexes are the tutte and the yamada complex of one graph, in that
    order.
    """
    if tutte.graph != yamada.graph or (tutte.variant, yamada.variant) != ("tutte", "yamada"):
        raise ValueError("phi_psi needs the tutte and the yamada complex of one graph")
    phi: list[list[int]] = []
    psi: list[list[int]] = []
    for i in range(yamada.height_count):
        phi_i, psi_i = [-1] * tutte.rank(i), [-1] * yamada.rank(i)
        for mask, y_off in yamada.state_offsets[i].items():
            t_off, size = tutte.state_offsets[i][mask], tutte.state_sizes[i][mask]
            step = 1 << mask.bit_count()
            phi_i[t_off : t_off + size] = range(y_off, y_off + size * step, step)
            psi_i[y_off : y_off + size * step : step] = range(t_off, t_off + size)
        phi.append(phi_i)
        psi.append(psi_i)
    return phi, psi
