"""The hypercube cochain complex of a multigraph.

Every edge subset S gets a free bigraded module C^S: a tensor product of
copies of Z[t]/(t^2), one per edge of S (yamada variant only) and one per
connected component of the spanning subgraph [G:S], and of copies of
Z[w]/(w^2), one per independent cycle. Corresponding cube edges carry
per-edge maps (unit insertion, component multiplication, cycle-factor
insertion); with the usual alternating signs these assemble into a
differential that preserves the bidegree and squares to zero, which
`build_complex` verifies on every run.

A basis element of C^S picks 1 or the generator in every tensor slot, so
it is a bitmask, and its index in C^S is that bitmask read as an integer:
bit k is slot k, a set bit is the generator. Slots are edge factors by
ascending edge index, then component factors by ascending minimal
vertex, then cycle factors. The bidegree of an index is (number of set
edge and component bits, number of set cycle bits). States inside one
height sit in ascending bitmask order. These conventions pin every
matrix entry, so two runs (or two machines) produce identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .laurent import BivariateLaurent
from .matrices import IntMatrix
from .multigraph import Multigraph, StateSubset, all_states, state_stats

Bidegree = tuple[int, int]
VARIANTS = ("yamada", "tutte")

# Largest total chain rank (sum over all states of rank C^S) that
# `build_complex` agrees to build; larger complexes are refused up front.
MAX_CHAIN_RANK = 1 << 20


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


def _component_index(components: tuple[tuple[int, ...], ...], vertex_count: int) -> list[int]:
    comp_of = [0] * vertex_count
    for idx, comp in enumerate(components):
        for v in comp:
            comp_of[v] = idx
    return comp_of


def per_edge_map(G: Multigraph, S: StateSubset, e: int, variant: str) -> IntMatrix:
    """Unsigned map C^S -> C^(S+e) along one cube edge.

    In the yamada variant the unit is inserted at edge e's slot. If the
    endpoints of e lie in one component of [G:S], components are kept
    and a unit cycle factor is appended at the last slot; otherwise the
    two touched component factors multiply into the merged component's
    slot and the survivors reorder canonically.
    """
    _check_variant(variant)
    if S.contains(e):
        raise ValueError(f"edge {e} already belongs to the state")
    yamada = variant == "yamada"
    S1 = S.add(e)
    st0 = state_stats(G, S)
    st1 = state_stats(G, S1)
    cols = 1 << ((S.size() if yamada else 0) + st0.b0 + st0.b1)
    rows = 1 << ((S1.size() if yamada else 0) + st1.b0 + st1.b1)
    comp_of = _component_index(st0.components, G.vertex_count)
    u, v = G.edges[e]
    pairs = _edge_rule(S.mask, e, comp_of[u], comp_of[v], cols, yamada)
    return IntMatrix(rows, cols, {(y, x): 1 for x, y in pairs})


@dataclass
class BigradedComplex:
    """Cochain complex with per-height bidegrees and per-bidegree blocks.

    `bidegrees[i][pos]` is the bidegree of basis element `pos` of C^i;
    `differentials[i]` is the full signed map C^i -> C^(i+1);
    `blocks[i][(j,k)]` its restriction to bidegree (j, k). Both are in
    the global basis order fixed by the construction.
    """

    variant: str
    graph: Multigraph
    bidegrees: list[list[Bidegree]]
    state_offsets: list[dict[int, int]]
    state_sizes: list[dict[int, int]]
    differentials: list[IntMatrix]
    bidegree_index: list[dict[Bidegree, list[int]]]
    blocks: list[dict[Bidegree, IntMatrix]]

    @property
    def height_count(self) -> int:
        return len(self.bidegrees)

    def rank(self, i: int) -> int:
        if 0 <= i < self.height_count:
            return len(self.bidegrees[i])
        return 0

    def differential(self, i: int) -> IntMatrix:
        if 0 <= i < len(self.differentials):
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
        for i in range(len(self.differentials)):
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


def build_complex(G: Multigraph, variant: str, max_edges: int = 12) -> BigradedComplex:
    """Assemble the full complex and verify d^2 = 0 and bidegree preservation.

    Refuses, before building anything, graphs over `max_edges` edges and
    complexes whose total chain rank exceeds `MAX_CHAIN_RANK`.
    """
    _check_variant(variant)
    n = G.edge_count
    if n > max_edges:
        raise ValueError(f"graph has {n} edges, over the limit of {max_edges}")
    if 1 << n > MAX_CHAIN_RANK:
        raise ValueError(
            f"chain complex has rank at least 2^{n}, over the limit of {MAX_CHAIN_RANK}"
        )
    yamada = variant == "yamada"

    # Per state: (edge + component slots, cycle slots) and the component of each vertex.
    stats = [state_stats(G, S) for S in all_states(G)]
    slots = [((mask.bit_count() if yamada else 0) + st.b0, st.b1) for mask, st in enumerate(stats)]
    chain_rank = sum(1 << (j + k) for j, k in slots)
    if chain_rank > MAX_CHAIN_RANK:
        raise ValueError(
            f"chain complex has rank {chain_rank}, over the limit of {MAX_CHAIN_RANK}"
        )
    comp_of = [_component_index(st.components, G.vertex_count) for st in stats]

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

    diffs: list[IntMatrix] = []
    blocks: list[dict[Bidegree, IntMatrix]] = []
    for i in range(n):
        entries: dict[tuple[int, int], int] = {}
        for mask in masks_by_height[i]:
            src_off = offsets[i][mask]
            for e in range(n):
                if mask >> e & 1:
                    continue
                sign = -1 if (mask & ((1 << e) - 1)).bit_count() % 2 else 1
                dst_off = offsets[i + 1][mask | 1 << e]
                u, v = G.edges[e]
                p, q = comp_of[mask][u], comp_of[mask][v]
                for x, y in _edge_rule(mask, e, p, q, sizes[i][mask], yamada):
                    entries[(dst_off + y, src_off + x)] = sign
        diffs.append(IntMatrix(len(bidegs[i + 1]), len(bidegs[i]), entries))

        block_entries: dict[Bidegree, dict[tuple[int, int], int]] = {
            jk: {} for jk in set(bidegree_index[i]) | set(bidegree_index[i + 1])
        }
        row_bidegs, col_bidegs = bidegs[i + 1], bidegs[i]
        row_pos, col_pos = block_pos[i + 1], block_pos[i]
        for (r, c), val in entries.items():
            jk = col_bidegs[c]
            if row_bidegs[r] != jk:
                raise RuntimeError(
                    f"differential d^{i} does not preserve the bidegree at entry ({r},{c})"
                )
            block_entries[jk][(row_pos[r], col_pos[c])] = val
        blocks.append(
            {
                jk: IntMatrix(
                    len(bidegree_index[i + 1].get(jk, [])), len(bidegree_index[i].get(jk, [])), ents
                )
                for jk, ents in block_entries.items()
            }
        )
        if i > 0:
            for jk, block in blocks[i].items():
                below = blocks[i - 1].get(jk)
                if below is not None and not (block @ below).is_zero():
                    raise RuntimeError(f"d^2 != 0 between heights {i - 1} and {i + 1}")

    return BigradedComplex(
        variant=variant,
        graph=G,
        bidegrees=bidegs,
        state_offsets=offsets,
        state_sizes=sizes,
        differentials=diffs,
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
