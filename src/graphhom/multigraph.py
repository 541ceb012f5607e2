"""Finite multigraphs with a fixed edge ordering.

Loops and parallel edges are allowed, and the position of an edge in the
edge list is part of the graph's identity: the state cube, the signs of
the differentials and every serialized artifact index edges by that
position. Two graphs with permuted edge lists are different values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal

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


@dataclass(frozen=True)
class StateSubset:
    """Subset S of the edge set, as a bitmask of width |E|.

    Bit i set means edge i belongs to S; the complement F = E - S is
    implicit. The 0/1 vector over all bits is the cube vertex for S.
    """

    mask: int
    width: int

    def __post_init__(self) -> None:
        if self.width < 0 or not 0 <= self.mask < (1 << self.width):
            raise ValueError(f"mask {self.mask} does not fit in width {self.width}")

    @classmethod
    def empty(cls, width: int) -> "StateSubset":
        return cls(0, width)

    @classmethod
    def full(cls, width: int) -> "StateSubset":
        return cls((1 << width) - 1, width)

    @classmethod
    def from_edges(cls, width: int, edge_indices: Iterable[int]) -> "StateSubset":
        mask = 0
        for e in edge_indices:
            if not 0 <= e < width:
                raise ValueError(f"edge index {e} out of range")
            mask |= 1 << e
        return cls(mask, width)

    def contains(self, e: int) -> bool:
        return bool(self.mask >> e & 1)

    def add(self, e: int) -> "StateSubset":
        if not 0 <= e < self.width:
            raise ValueError(f"edge index {e} out of range")
        return StateSubset(self.mask | (1 << e), self.width)

    def remove(self, e: int) -> "StateSubset":
        return StateSubset(self.mask & ~(1 << e), self.width)

    def size(self) -> int:
        return self.mask.bit_count()

    def edge_indices(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.width) if self.mask >> i & 1)


def all_states(G: Multigraph) -> Iterator[StateSubset]:
    """All edge subsets of G in ascending bitmask order."""
    n = G.edge_count
    for mask in range(1 << n):
        yield StateSubset(mask, n)


@dataclass(frozen=True)
class StateStats:
    """Betti data of a spanning subgraph [G:S].

    `components` lists the vertex sets, each sorted, ordered by minimal
    vertex; this order fixes the tensor-factor slots downstream.
    """

    b0: int
    b1: int
    components: tuple[tuple[int, ...], ...]


def state_stats(G: Multigraph, S: StateSubset) -> StateStats:
    """Connected components and Betti numbers of the state [G:S]."""
    if S.width != G.edge_count:
        raise ValueError(f"state width {S.width} does not match |E| = {G.edge_count}")
    parent = list(range(G.vertex_count))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for e in S.edge_indices():
        u, v = G.edges[e]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru

    groups: dict[int, list[int]] = {}
    for v in range(G.vertex_count):
        groups.setdefault(find(v), []).append(v)
    components = tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda c: c[0]))
    b0 = len(components)
    b1 = S.size() - G.vertex_count + b0
    return StateStats(b0, b1, components)


def classify_edge(G: Multigraph, e: int) -> EdgeKind:
    """loop / isthmus / ordinary, per deletion of e from the full graph."""
    if not 0 <= e < G.edge_count:
        raise IndexError(f"edge index {e} out of range")
    u, v = G.edges[e]
    if u == v:
        return "loop"
    full = StateSubset.full(G.edge_count)
    before = state_stats(G, full).b0
    after = state_stats(G, full.remove(e)).b0
    return "isthmus" if after > before else "ordinary"


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
