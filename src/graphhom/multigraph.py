"""Finite multigraphs with a fixed edge ordering.

Loops and parallel edges are allowed, and the position of an edge in the
edge list is part of the graph's identity: the state cube, the signs of
the differentials and every serialized artifact index edges by that
position. Two graphs with permuted edge lists are different values.

A state S is an edge subset, kept as a bitmask of width |E| (bit i set
means edge i is in S). Three views of the state cube: `state_components`
labels the components of every state, which the complex builder needs
for its tensor slots; `cyclic_state_components` labels those of the
states with b1 >= 1 alone, by a search that cuts every branch with no
cycle ahead, for the cycle summands; `state_histogram` counts all states
by (|S|, b0), which is all that the state sums need, by a frontier
transfer over the edges that never visits the states one by one, or in
closed form for a forest, whose states have no cycle. Those counts are
the same for every edge order, so the transfer walks an order of its own
that keeps its frontier narrow; everything that indexes states by edge
position keeps the given order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterable, Iterator, Literal, Sequence

Edge = tuple[int, int]
EdgeKind = Literal["loop", "isthmus", "ordinary"]


@dataclass(frozen=True)
class Multigraph:
    vertex_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("negative vertex_count")
        for i, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise ValueError(
                    f"edge {i} endpoints ({u},{v}) out of range for {self.vertex_count} vertices"
                )

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def build(vertex_count: int, edge_list: Iterable[Iterable[int]]) -> Multigraph:
    """Construct a multigraph; the order of `edge_list` fixes e1..en."""
    edges = []
    for e in edge_list:
        u, v = e
        edges.append((int(u), int(v)))
    return Multigraph(int(vertex_count), tuple(edges))


def state_components(G: Multigraph) -> list[tuple[list[int], int]]:
    """For every state mask, the component of each vertex of [G:S] and b0.

    Components are numbered by ascending minimal vertex. Each mask is
    its parent `mask & (mask - 1)` plus its lowest edge, so the masks are
    labelled in ascending order from the empty state, where every vertex
    is its own component (`_subcube_components`). If the new edge joins
    components p < q, q merges into p and every label above q moves down
    by one; otherwise the parent's labels are unchanged and its list is
    shared, so callers must not change the lists. b1 of the state is
    |S| - V + b0.
    """
    return _subcube_components(G.edges, 0, list(range(G.vertex_count)), G.vertex_count)


def _subcube_components(
    edges: tuple[Edge, ...], start: int, labels: list[int], b0: int
) -> list[tuple[list[int], int]]:
    """(labels, b0) of S + T for every subset T of the edges from `start`
    on, indexed by T shifted down by `start`, from the `labels` and `b0`
    of S, which has no edge from `start` on: T is its parent T & (T - 1)
    plus its lowest edge, as in `state_components`."""
    out = [(labels, b0)]
    for t in range(1, 1 << len(edges) - start):
        low = t & -t
        labels, b0 = out[t ^ low]
        u, v = edges[start + low.bit_length() - 1]
        p, q = labels[u], labels[v]
        if p == q:
            out.append((labels, b0))
        else:
            p, q = (p, q) if p < q else (q, p)
            out.append(([p if c == q else c - 1 if c > q else c for c in labels], b0 - 1))
    return out


def _cycle_edges(
    edges: tuple[Edge, ...], labels: Sequence[int], count: int, lo: int
) -> Iterator[int]:
    """The edges e >= lo, from the last down, that close a cycle over S
    plus the edges after e: a union-find over the `count` components of
    S, whose `labels` give the component of each vertex."""
    root = list(range(count))
    for e in range(len(edges) - 1, lo - 1, -1):
        u, v = edges[e]
        a, b = labels[u], labels[v]
        while root[a] != a:
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        if a == b:
            yield e
        else:
            root[b] = a


def _cycle_search(G: Multigraph) -> Iterator[tuple[int, int, list[int], int, bool]]:
    """Every node of the search of `cyclic_state_components`, as (mask,
    start, labels, b0, whether b1 >= 1), in depth-first order.

    A node is a state S and the edges it may still take, those from
    `start` on, above its highest one. A node with b1(S) >= 1 is a leaf:
    every state it leads to is in the up-set. Otherwise its children are
    S + e, labelled from S as in `state_components`, as long as S with e
    and every edge after it still has b1 >= 1. That superset shrinks as e
    grows, so the first e that fails ends the children, and every node is
    a state of the up-set or a subset of one. e qualifies while the count
    bound |S| + (edges from e on) - V + b0(G) >= 1 holds, since b0 of the
    superset is at least b0(G); past it, one union-find over the
    components of S (`_cycle_edges`) finds the last edge that closes a
    cycle over S and the edges after it, and e qualifies up to that edge.
    The first child needs no test: S with `start` and every edge after it
    is the superset its parent tested.
    """
    V, n, edges = G.vertex_count, G.edge_count, G.edges
    b1_of_G = sum(1 for _ in _cycle_edges(edges, range(V), V, 0))
    stack = [(0, 0, list(range(V)), V)]
    while stack:
        mask, start, labels, b0 = stack.pop()
        size = mask.bit_count()
        cyclic = size - V + b0 >= 1
        yield mask, start, labels, b0, cyclic
        if cyclic:
            continue
        stop = min(n, size + b1_of_G)  # the count bound holds for e < stop
        if stop < n:
            stop = max(stop, next(_cycle_edges(edges, labels, b0, max(start, stop)), -1) + 1)
        for e in reversed(range(start, stop)):  # pushed last to first: popped in edge order
            u, v = edges[e]
            p, q = labels[u], labels[v]
            if p == q:
                stack.append((mask | 1 << e, e + 1, labels, b0))
            else:
                p, q = (p, q) if p < q else (q, p)
                child = [p if c == q else c - 1 if c > q else c for c in labels]
                stack.append((mask | 1 << e, e + 1, child, b0 - 1))


def cyclic_state_components(G: Multigraph) -> dict[int, tuple[list[int], int]]:
    """`state_components(G)` on the up-set of the states with b1 >= 1
    alone, as mask -> (labels, b0), labels and b0 as `state_components`
    gives them (and shared in the same way), the masks in no set order.

    A depth-first search over the edges in order (`_cycle_search`) cuts
    every branch that can no longer close a cycle, and each of its leaves,
    a state S with b1(S) = 1 and no edge from `start` on, leads to the
    subcube of S and every subset of those edges, all in the up-set, which
    `_subcube_components` labels as `state_components` would. The search
    visits only those leaves and their prefixes in edge order, not all
    2^|E| states: a cycle of n edges visits n + 1 states and keeps one.
    """
    out: dict[int, tuple[list[int], int]] = {}
    top = 1 << G.edge_count
    for mask, start, labels, b0, cyclic in _cycle_search(G):
        if cyclic:  # S + T is mask + (T << start), T ascending
            masks = range(mask, mask + top, 1 << start)
            out.update(zip(masks, _subcube_components(G.edges, start, labels, b0)))
    return out


def connected_components(G: Multigraph) -> list[Multigraph]:
    """The connected components of G, an isolated vertex included, in order
    of their least vertex; each keeps its vertices and its edges in
    ascending order, renumbered from 0."""
    root = list(range(G.vertex_count))

    def find(w: int) -> int:
        while root[w] != w:
            root[w] = w = root[root[w]]
        return w

    for u, v in G.edges:
        a, b = find(u), find(v)
        root[max(a, b)] = min(a, b)
    members: dict[int, list[int]] = {}
    for w in range(G.vertex_count):
        members.setdefault(find(w), []).append(w)
    edges_of: dict[int, list[Edge]] = {}
    for u, v in G.edges:
        edges_of.setdefault(find(u), []).append((u, v))
    out = []
    for r, ws in members.items():
        number = {w: t for t, w in enumerate(ws)}
        out.append(
            Multigraph(len(ws), tuple((number[u], number[v]) for u, v in edges_of.get(r, ())))
        )
    return out


def _narrow_order(G: Multigraph) -> tuple[list[Edge], int]:
    """The edges of G in an order that keeps the transfer's frontier
    narrow, and the number of components among the vertices on an edge.

    The endpoints are numbered breadth-first, each component from an
    endpoint of least degree, and the edges sorted by the number of their
    later endpoint, then of their earlier one: a vertex enters the
    frontier with its first edge and, as its neighbours are numbered
    close to it, leaves soon after. A path then holds 2 vertices at a
    time and a cycle 3, where an arbitrary order can hold most of them.
    The numbering starts once per component, which counts them.
    """
    neighbours: dict[int, list[int]] = {}
    for u, v in G.edges:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    pos: dict[int, int] = {}
    components = 0
    for root in sorted(neighbours, key=lambda w: len(neighbours[w])):
        if root in pos:
            continue
        components += 1
        pos[root] = len(pos)
        queue = [root]
        for w in queue:  # grows while it is read: breadth first
            for x in neighbours[w]:
                if x not in pos:
                    pos[x] = len(pos)
                    queue.append(x)

    def key(edge: Edge) -> tuple[int, int]:
        a, b = pos[edge[0]], pos[edge[1]]
        return (a, b) if a > b else (b, a)

    return sorted(G.edges, key=key), components


def state_histogram(G: Multigraph) -> dict[tuple[int, int], int]:
    """How many states S of G have each value of (|S|, b0([G:S])).

    A frontier transfer over the edges (Sekine, Imai and Tani, ISAAC
    1995), not a visit to each of the 2^|E| states. The counts do not
    depend on the order the edges are walked in, since a state is a set
    of edges and its components are those of the set, so the transfer
    walks the order of `_narrow_order`, not the one G was given in: its
    cost grows with Bell of the frontier width, which that order keeps
    small on paths, cycles, trees and ladders. The frontier is the
    endpoints already met whose last edge is still ahead, in the order
    they were met. After each edge the states are grouped by how
    their components partition the frontier, written as the first
    frontier position of each vertex's block, so that one partition has
    one key. A group keeps the counts of its states by (|S|, components
    already closed) packed in one int, a field of |E| + 1 bits per pair
    (no count reaches 2^(|E| + 1)): putting the edge in is a shift by one
    row of fields, closing a component a shift by one field, and two
    states that reach one partition merge by one addition. A vertex
    leaves the frontier after its last edge, closing its component if
    no frontier vertex is left in it. After i edges there are at most
    min(2^i, Bell(frontier width)) groups. Vertices on no edge never
    enter; each adds 1 to b0 in every state.

    A forest needs no transfer: each of its edges joins two components
    of every state without it, so the C(|E|, k) states of size k all have
    b0 = V - k. G is a forest exactly when |E| is the number of vertices
    on an edge less the number of components among them; a loop, a
    parallel edge or any other cycle makes |E| larger. Either way the
    keys come in ascending (|S|, b0) order.
    """
    edges, components = _narrow_order(G)
    last = {w: i for i, edge in enumerate(edges) for w in edge}
    n = G.edge_count
    if n == len(last) - components:
        return {(k, G.vertex_count - k): comb(n, k) for k in range(n + 1)}
    width = n + 1
    fields = len(last) + 1
    stride = width * fields
    front: list[int] = []
    groups = {(): 1}
    for i, (u, v) in enumerate(edges):
        ends = (u,) if u == v else (u, v)
        # a vertex met here is a block of its own, labelled by its position
        fresh = [w for w in ends if w not in front]
        grown = tuple(range(len(front), len(front) + len(fresh)))
        front += fresh
        pu, pv = front.index(u), front.index(v)
        # only an endpoint of edge i can have edge i as its last edge
        drop = [front.index(w) for w in ends if last[w] == i]
        keep = [j for j in range(len(front)) if j not in drop]
        front = [front[j] for j in keep]
        slots = range(len(keep))
        moved: dict[tuple[int, ...], int] = {}
        for part, counts in groups.items():
            part += grown
            a, b = part[pu], part[pv]
            if a == b:
                branches = ((part, counts + (counts << stride)),)
            else:
                # the joined block starts where the earlier of the two did
                lo, hi = (a, b) if a < b else (b, a)
                merged = tuple(map({hi: lo}.get, part, part))
                branches = ((part, counts), (merged, counts << stride))
            for labels, packed in branches:
                if drop:
                    kept = [labels[j] for j in keep]
                    packed <<= width * len({labels[j] for j in drop}.difference(kept))
                    # the positions moved: label each block by its first one again
                    labels = tuple(map({}.setdefault, kept, slots))
                moved[labels] = moved.get(labels, 0) + packed
        groups = moved
    (counts,) = groups.values()
    mask = (1 << width) - 1
    isolated = G.vertex_count - len(last)
    out = {}
    while counts:  # the nonzero fields, lowest (|S|, b0) first
        k = ((counts & -counts).bit_length() - 1) // width
        c = counts >> k * width & mask
        counts ^= c << k * width
        size, b0 = divmod(k, fields)
        out[size, b0 + isolated] = c
    return out


def classify_edge(G: Multigraph, e: int) -> EdgeKind:
    """loop / isthmus / ordinary, per deletion of e from the full graph.

    A non-loop edge is an isthmus exactly when deleting it disconnects its
    endpoints, so one search of G - e from u decides it in O(|E|).
    """
    if not 0 <= e < G.edge_count:
        raise IndexError(f"edge index {e} out of range")
    u, v = G.edges[e]
    if u == v:
        return "loop"
    neighbours: dict[int, list[int]] = {}
    for i, (a, b) in enumerate(G.edges):
        if i != e:
            neighbours.setdefault(a, []).append(b)
            neighbours.setdefault(b, []).append(a)
    seen = {u}
    stack = [u]
    while stack:
        for w in neighbours.get(stack.pop(), ()):
            if w == v:
                return "ordinary"
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return "isthmus"


def reduce(G: Multigraph, e: int, mode: Literal["delete", "contract"]) -> Multigraph:
    """Delete or contract edge e; surviving edges keep their order.

    Contraction merges the two endpoints into the smaller label (larger
    labels shift down by one); parallel edges to the merged pair become
    loops. Deletion keeps all vertices, including freshly isolated ones.
    """
    if not 0 <= e < G.edge_count:
        raise IndexError(f"edge index {e} out of range")
    rest = G.edges[:e] + G.edges[e + 1 :]
    if mode == "delete":
        return Multigraph(G.vertex_count, rest)
    if mode != "contract":
        raise ValueError(f"unknown mode {mode!r}")
    u, v = G.edges[e]
    if u == v:
        raise ValueError("cannot contract a loop")
    lo, hi = (u, v) if u < v else (v, u)

    def remap(w: int) -> int:
        if w == hi:
            return lo
        return w - 1 if w > hi else w

    return Multigraph(G.vertex_count - 1, tuple((remap(a), remap(b)) for a, b in rest))


def permute_edges(G: Multigraph, sigma: Iterable[int]) -> Multigraph:
    """Relabelled graph whose i-th edge is G.edges[sigma[i]]."""
    order = tuple(sigma)
    if sorted(order) != list(range(G.edge_count)):
        raise ValueError("sigma is not a permutation of the edge indices")
    return Multigraph(G.vertex_count, tuple(G.edges[i] for i in order))


# Named families used by closed forms, tests and the verification corpus.

def tree_graph(n: int) -> Multigraph:
    """Path with n edges on n+1 vertices."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Multigraph(n + 1, tuple((i, i + 1) for i in range(n)))


def bouquet_graph(n: int) -> Multigraph:
    """Single vertex with n loops."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return Multigraph(1, tuple((0, 0) for _ in range(n)))


def multiedge_graph(n: int) -> Multigraph:
    """Two vertices joined by n parallel edges."""
    if n < 1:
        raise ValueError("n must be positive")
    return Multigraph(2, tuple((0, 1) for _ in range(n)))


def cycle_graph(n: int) -> Multigraph:
    """Simple cycle with n edges (n=1 is a loop, n=2 the bigon)."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return bouquet_graph(1)
    if n == 2:
        return multiedge_graph(2)
    return Multigraph(n, tuple((i, (i + 1) % n) for i in range(n)))


def bigon() -> Multigraph:
    return multiedge_graph(2)


def triangle() -> Multigraph:
    return Multigraph(3, ((0, 1), (1, 2), (0, 2)))


def to_json_dict(G: Multigraph) -> dict:
    return {"vertices": G.vertex_count, "edges": [[u, v] for u, v in G.edges]}


def from_json_dict(data: object) -> Multigraph:
    if not isinstance(data, dict):
        raise ValueError("graph JSON must be an object")
    try:
        vertices = data["vertices"]
        edges = data["edges"]
    except KeyError as exc:
        raise ValueError(f"graph JSON missing key {exc}") from exc
    if not isinstance(vertices, int) or isinstance(vertices, bool):
        raise ValueError("'vertices' must be an integer")
    if not isinstance(edges, list):
        raise ValueError("'edges' must be an array")
    pairs = []
    for i, e in enumerate(edges):
        if (
            not isinstance(e, (list, tuple))
            or len(e) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in e)
        ):
            raise ValueError(f"edge {i} must be a pair of integers")
        pairs.append((e[0], e[1]))
    return build(vertices, pairs)
