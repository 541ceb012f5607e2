"""The hypercube cochain complex of a multigraph.

Every edge subset S gets a free bigraded module C^S: a tensor product of
copies of Z[t]/(t^2), one per edge of S (yamada variant only) and one per
connected component of the spanning subgraph [G:S], and of copies of
Z[w]/(w^2), one per independent cycle. Corresponding cube edges carry
per-edge maps (unit insertion, component multiplication, cycle-factor
insertion); with the usual alternating signs these assemble into a
differential that preserves the bidegree and squares to zero, which
`build_complex` verifies on every run: the bidegree on every entry as
it is written into its per-bidegree block, and d^2 = 0 one square face
of the cube at a time. The blocks are the only stored form of the
differential.

A state S is its edge bitmask, and the components of [G:S] come from
`multigraph.state_components`, which derives every state from its
parent state. A basis element of C^S picks 1 or the generator in every
tensor slot, so it is a bitmask too, and its index in C^S is that
bitmask read as an integer: bit k is slot k, a set bit is the
generator. Slots are edge factors by ascending edge index, then
component factors by ascending minimal vertex, then cycle factors. The
bidegree of an index is (number of set edge and component bits, number
of set cycle bits). States inside one height sit in ascending bitmask
order. These conventions pin every matrix entry, so two runs (or two
machines) produce identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from typing import Iterable

from .laurent import BivariateLaurent
from .matrices import IntMatrix
from .multigraph import Multigraph, state_components

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


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def _edge_rule(
    mask: int, e: int, p: int, q: int, size: int, yamada: bool
) -> list[tuple[int, int]]:
    """(source, target) index pairs of the unsigned map C^S -> C^(S+e).

    `mask` is S, `size` the rank of C^S, and p, q are the components of
    [G:S] holding the endpoints of e. Every coefficient is 1. In the
    yamada variant a 0 bit (the unit) is inserted at e's edge slot. If
    p == q the new cycle slot is the highest bit of the target and holds
    the unit, so nothing else moves. Otherwise the component bits of p
    and q are OR-ed into the lower one, elements with both set are
    dropped (t * t = 0), and the higher one is removed, which moves the
    later components down one slot.
    """
    if yamada:
        comp0 = mask.bit_count() + 1  # the target's edge slots come first
        insert = (mask & ((1 << e) - 1)).bit_count()
        below = (1 << insert) - 1
        targets = [(x >> insert << insert + 1) | (x & below) for x in range(size)]
    else:
        comp0 = 0
        targets = range(size)
    if p == q:
        return list(enumerate(targets))
    lo, hi = comp0 + min(p, q), comp0 + max(p, q)
    lo_bit, hi_bit, below_hi = 1 << lo, 1 << hi, (1 << hi) - 1
    pairs = []
    for x, y in enumerate(targets):
        if y & hi_bit:
            if y & lo_bit:
                continue
            y |= lo_bit
        pairs.append((x, (y >> hi + 1 << hi) | (y & below_hi)))
    return pairs


@dataclass
class BigradedComplex:
    """Cochain complex with per-height bidegrees and per-bidegree blocks.

    `bidegrees[i][pos]` is the bidegree of basis element `pos` of C^i and
    `bidegree_index[i][(j,k)]` lists, in ascending order, the positions of
    bidegree (j, k). `blocks[i][(j,k)]` is the signed differential
    C^i -> C^(i+1) restricted to bidegree (j, k), row r and column c
    standing for positions `bidegree_index[i+1][(j,k)][r]` and
    `bidegree_index[i][(j,k)][c]`. The blocks are the only stored form of
    the differential; `differentials` assembles the full maps from them
    on request.
    """

    variant: str
    graph: Multigraph
    bidegrees: list[list[Bidegree]]
    state_offsets: list[dict[int, int]]
    state_sizes: list[dict[int, int]]
    bidegree_index: list[dict[Bidegree, list[int]]]
    blocks: list[dict[Bidegree, IntMatrix]]

    @property
    def height_count(self) -> int:
        return len(self.bidegrees)

    def rank(self, i: int) -> int:
        if 0 <= i < self.height_count:
            return len(self.bidegrees[i])
        return 0

    @cached_property
    def differentials(self) -> list[IntMatrix]:
        """The full signed maps C^i -> C^(i+1) in the global basis order,
        assembled from the blocks on first use and kept from then on."""
        out = []
        for i, level in enumerate(self.blocks):
            row_index, col_index = self.bidegree_index[i + 1], self.bidegree_index[i]
            entries: dict[tuple[int, int], int] = {}
            for jk, block in level.items():
                rows, cols = row_index.get(jk, []), col_index.get(jk, [])
                for r, c, val in block.sorted_entries():
                    entries[(rows[r], cols[c])] = val
            out.append(IntMatrix(self.rank(i + 1), self.rank(i), entries))
        return out

    def differential(self, i: int) -> IntMatrix:
        if 0 <= i < len(self.blocks):
            return self.differentials[i]
        return IntMatrix.zeros(self.rank(i + 1), self.rank(i))

    def dims_at(self, i: int) -> dict[Bidegree, int]:
        if not 0 <= i < self.height_count:
            return {}
        return {jk: len(idx) for jk, idx in self.bidegree_index[i].items()}

    def block(self, i: int, jk: Bidegree) -> IntMatrix:
        """d^i restricted to bidegree jk (zero-sized when absent)."""
        if 0 <= i < len(self.blocks) and jk in self.blocks[i]:
            return self.blocks[i][jk]
        rows = len(self.bidegree_index[i + 1].get(jk, [])) if i + 1 < self.height_count else 0
        cols = len(self.bidegree_index[i].get(jk, [])) if 0 <= i < self.height_count else 0
        return IntMatrix.zeros(rows, cols)

    def qdim(self, i: int) -> BivariateLaurent:
        """Graded dimension of C^i, as a polynomial in (t, w)."""
        out: dict[Bidegree, int] = {}
        for jk in self.bidegrees[i]:
            out[jk] = out.get(jk, 0) + 1
        return BivariateLaurent(out)

    def blocks_json(self, height: int | None = None) -> list[dict]:
        """Per-height, per-bidegree matrices, entries sorted by (row, col)."""
        out = []
        for i in range(len(self.blocks)):
            if height is not None and i != height:
                continue
            jks = set(self.bidegree_index[i]) | set(self.bidegree_index[i + 1])
            for jk in sorted(jks):
                block = self.block(i, jk)
                out.append(
                    {
                        "i": i,
                        "bidegree": [jk[0], jk[1]],
                        "rows": block.rows,
                        "cols": block.cols,
                        "entries": [[r, c, v] for r, c, v in block.sorted_entries()],
                    }
                )
        return out


def _check_faces(
    masks: list[int],
    n: int,
    below: dict[tuple[int, int], tuple[int, list[int]]],
    above: dict[tuple[int, int], tuple[int, list[int]]],
    i: int,
) -> None:
    """Raise unless every square face from height i - 1 to i + 1 anticommutes.

    `below` and `above` hold the signed per-edge maps out of heights i - 1
    and i as target arrays. The piece S -> S+e+f of d^i d^(i-1) is the sum
    of the two paths round the face; each path sends x to at most one
    element, with the product of its signs. So the piece is zero exactly
    when both paths send every x to the same element (or both kill it)
    and, unless every x is killed, the two sign products are opposite.
    """
    for mask in masks:
        free = [e for e in range(n) if not mask >> e & 1]
        for t, e in enumerate(free):
            sign_a, a = below[(mask, e)]
            for f in free[t + 1 :]:
                sign_b, b = above[(mask | 1 << e, f)]
                sign_c, c = below[(mask, f)]
                sign_d, d = above[(mask | 1 << f, e)]
                ab = list(map(b.__getitem__, a))
                if ab != list(map(d.__getitem__, c)) or (
                    sign_a * sign_b == sign_c * sign_d and max(ab) >= 0
                ):
                    raise RuntimeError(f"d^2 != 0 between heights {i - 1} and {i + 1}")


def build_complex(G: Multigraph, variant: str, max_edges: int = 12) -> BigradedComplex:
    """Assemble the complex into per-bidegree blocks and verify it.

    Refuses, before building anything, graphs over `max_edges` edges and
    complexes whose total chain rank exceeds `MAX_CHAIN_RANK`: first by a
    lower bound before any state is looked at, then by the exact rank
    before any basis is built. The exact rank takes b0 of every state from
    `state_components`, which also gives the component of each endpoint
    that the per-edge maps need. Heights are assembled in order. Each entry
    is checked to preserve the bidegree as it is written into its block,
    each per-edge map must be a partial function (every coefficient is 1),
    and once height i is written, the faces from height i - 1 to i + 1 are
    checked to anticommute (`_check_faces`). Any failure raises
    RuntimeError.
    """
    _check_variant(variant)
    n = G.edge_count
    if n > max_edges:
        raise ValueError(f"graph has {n} edges, over the limit of {max_edges}")
    yamada = variant == "yamada"
    _refuse_by_floor(G.vertex_count, n, yamada)

    # Per state: the component of each vertex, and (edge + component slots, cycle slots).
    components = state_components(G)
    slots = []
    for mask, (_, b0) in enumerate(components):
        size = mask.bit_count()
        slots.append(((size if yamada else 0) + b0, size - G.vertex_count + b0))
    chain_rank = sum(1 << (j + k) for j, k in slots)
    if chain_rank > MAX_CHAIN_RANK:
        raise ValueError(
            f"chain complex has rank {chain_rank}, over the limit of {MAX_CHAIN_RANK}"
        )

    masks_by_height: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1 << n):
        masks_by_height[mask.bit_count()].append(mask)
    popcounts = [x.bit_count() for x in range(1 << max(max(j, k) for j, k in slots))]

    bidegs: list[list[Bidegree]] = []
    offsets: list[dict[int, int]] = []
    sizes: list[dict[int, int]] = []
    bidegree_index: list[dict[Bidegree, list[int]]] = []
    block_pos: list[list[int]] = []  # position of each basis element inside its bidegree
    for masks in masks_by_height:
        bidegs_i: list[Bidegree] = []
        offset_map: dict[int, int] = {}
        size_map: dict[int, int] = {}
        for mask in masks:
            j_slots, k_slots = slots[mask]
            offset_map[mask] = len(bidegs_i)
            size_map[mask] = 1 << (j_slots + k_slots)
            bidegs_i.extend(
                (pj, pk) for pk in popcounts[: 1 << k_slots] for pj in popcounts[: 1 << j_slots]
            )
        index: dict[Bidegree, list[int]] = {}
        pos_i = []
        for pos, jk in enumerate(bidegs_i):
            members = index.setdefault(jk, [])
            pos_i.append(len(members))
            members.append(pos)
        bidegs.append(bidegs_i)
        offsets.append(offset_map)
        sizes.append(size_map)
        bidegree_index.append(index)
        block_pos.append(pos_i)

    blocks: list[dict[Bidegree, IntMatrix]] = []
    below: dict[tuple[int, int], tuple[int, list[int]]] = {}
    for i in range(n):
        row_bidegs, col_bidegs = bidegs[i + 1], bidegs[i]
        row_pos, col_pos = block_pos[i + 1], block_pos[i]
        block_entries: dict[Bidegree, dict[tuple[int, int], int]] = {
            jk: {} for jk in set(bidegree_index[i]) | set(bidegree_index[i + 1])
        }
        # (mask, e) -> (sign, target of each source or -1 when it is killed).
        # The extra trailing -1 lets a composite look up a killed element at
        # index -1 and get -1 back.
        maps: dict[tuple[int, int], tuple[int, list[int]]] = {}
        for mask in masks_by_height[i]:
            src_off, size = offsets[i][mask], sizes[i][mask]
            comp_of = components[mask][0]
            for e in range(n):
                if mask >> e & 1:
                    continue
                sign = -1 if (mask & ((1 << e) - 1)).bit_count() % 2 else 1
                dst_off = offsets[i + 1][mask | 1 << e]
                u, v = G.edges[e]
                target = [-1] * (size + 1)
                for x, y in _edge_rule(mask, e, comp_of[u], comp_of[v], size, yamada):
                    r, c = dst_off + y, src_off + x
                    jk = col_bidegs[c]
                    if row_bidegs[r] != jk:
                        raise RuntimeError(
                            f"differential d^{i} does not preserve the bidegree at entry ({r},{c})"
                        )
                    if target[x] >= 0:
                        raise RuntimeError(
                            f"the map of edge {e} out of state {mask:#b} sends {x} to two targets"
                        )
                    target[x] = y
                    block_entries[jk][(row_pos[r], col_pos[c])] = sign
                maps[(mask, e)] = (sign, target)
        blocks.append(
            {
                jk: IntMatrix(
                    len(bidegree_index[i + 1].get(jk, [])), len(bidegree_index[i].get(jk, [])), ents
                )
                for jk, ents in block_entries.items()
            }
        )
        if i > 0:
            _check_faces(masks_by_height[i - 1], n, below, maps, i)
        below = maps

    return BigradedComplex(
        variant=variant,
        graph=G,
        bidegrees=bidegs,
        state_offsets=offsets,
        state_sizes=sizes,
        bidegree_index=bidegree_index,
        blocks=blocks,
    )


def graded_euler(cx: BigradedComplex) -> BivariateLaurent:
    """Alternating sum of the graded dimensions of the chain groups."""
    out: dict[Bidegree, int] = {}
    for i, bidegs in enumerate(cx.bidegrees):
        sign = -1 if i % 2 else 1
        for jk in bidegs:
            out[jk] = out.get(jk, 0) + sign
    return BivariateLaurent(out)


@dataclass
class ProjectionMaps:
    """Chain projection onto the complex of a spanning subgraph."""

    source: BigradedComplex
    target: BigradedComplex
    matrices: list[IntMatrix]


def projection_map(
    G: Multigraph,
    gamma: Iterable[int],
    variant: str = "yamada",
    max_edges: int = 12,
    source: BigradedComplex | None = None,
) -> ProjectionMaps:
    """Per-height matrices selecting the summands with S inside gamma.

    The target complex lives on the subgraph with gamma's edges in their
    induced order (all vertices retained, so states and their chain
    modules match verbatim).
    """
    _check_variant(variant)
    gamma_sorted = sorted(set(gamma))
    if any(not 0 <= e < G.edge_count for e in gamma_sorted):
        raise ValueError("gamma is not a subset of the edge indices")
    src = source if source is not None else build_complex(G, variant, max_edges)
    if src.graph != G or src.variant != variant:
        raise ValueError("provided source complex does not match the graph/variant")
    sub = Multigraph(G.vertex_count, tuple(G.edges[e] for e in gamma_sorted))
    dst = build_complex(sub, variant, max_edges)
    pos = {e: i for i, e in enumerate(gamma_sorted)}
    gamma_mask = 0
    for e in gamma_sorted:
        gamma_mask |= 1 << e

    mats: list[IntMatrix] = []
    for i in range(src.height_count):
        entries: dict[tuple[int, int], int] = {}
        if i < dst.height_count:
            for mask, src_off in src.state_offsets[i].items():
                if mask & ~gamma_mask:
                    continue
                dst_mask = 0
                for e in range(G.edge_count):
                    if mask >> e & 1:
                        dst_mask |= 1 << pos[e]
                dst_off = dst.state_offsets[i][dst_mask]
                for l in range(src.state_sizes[i][mask]):
                    entries[(dst_off + l, src_off + l)] = 1
        mats.append(IntMatrix(dst.rank(i), src.rank(i), entries))
    return ProjectionMaps(source=src, target=dst, matrices=mats)


@dataclass
class RetractionMaps:
    """The chain maps between the tutte and yamada variants.

    phi inserts the unit in every edge slot; psi evaluates the counit on
    every edge slot. psi[i] @ phi[i] is the identity at every height.
    """

    tutte: BigradedComplex
    yamada: BigradedComplex
    phi: list[IntMatrix]
    psi: list[IntMatrix]


def phi_psi(
    G: Multigraph,
    max_edges: int = 12,
    tutte_complex: BigradedComplex | None = None,
    yamada_complex: BigradedComplex | None = None,
) -> RetractionMaps:
    """Per-height matrices of phi: C_T -> C_Y and psi: C_Y -> C_T.

    Edge slots are the low |S| bits of a yamada index, so phi sends a
    tutte index l to l << |S|, and psi keeps exactly the yamada indices
    whose edge bits are all 0 (the counit kills the generator) and
    shifts them back.
    """
    cx_t = tutte_complex if tutte_complex is not None else build_complex(G, "tutte", max_edges)
    cx_y = yamada_complex if yamada_complex is not None else build_complex(G, "yamada", max_edges)

    phi: list[IntMatrix] = []
    psi: list[IntMatrix] = []
    for i in range(cx_y.height_count):
        phi_entries: dict[tuple[int, int], int] = {}
        psi_entries: dict[tuple[int, int], int] = {}
        for mask, y_off in cx_y.state_offsets[i].items():
            t_off = cx_t.state_offsets[i][mask]
            lam = mask.bit_count()
            for l in range(cx_t.state_sizes[i][mask]):
                phi_entries[(y_off + (l << lam), t_off + l)] = 1
                psi_entries[(t_off + l, y_off + (l << lam))] = 1
        phi.append(IntMatrix(cx_y.rank(i), cx_t.rank(i), phi_entries))
        psi.append(IntMatrix(cx_t.rank(i), cx_y.rank(i), psi_entries))
    return RetractionMaps(tutte=cx_t, yamada=cx_y, phi=phi, psi=psi)
