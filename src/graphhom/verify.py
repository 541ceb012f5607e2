"""Machine checks of the structural properties of the construction.

Each checker runs one exact identity on a concrete graph and returns a
pass/fail report; on failure the report carries a witness describing the
first counterexample found. All comparisons are of canonical forms, so
there are no tolerances anywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .cube import VARIANTS, build_complex, graded_euler, phi_psi, projection_map
from .homology import cohomology, induced_map_ranks
from .invariants import g_polynomials, yamada_state_sum
from .laurent import X
from .matrices import IntMatrix
from .multigraph import (
    Multigraph,
    bigon,
    bouquet_graph,
    classify_edge,
    cycle_graph,
    multiedge_graph,
    permute_edges,
    reduce,
    tree_graph,
    triangle,
)

CHECK_NAMES = (
    "deletion_contraction",
    "euler",
    "permutation_invariance",
    "projection",
    "retraction",
)


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    witness: str = ""

    def __post_init__(self) -> None:
        if not self.passed and not self.witness:
            raise ValueError("a failing report must carry a witness")

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "witness": self.witness}


def check_euler(G: Multigraph, max_edges: int = 12) -> CheckReport:
    """Chain-level Euler characteristic == cohomology Euler == g(G; t, w)."""
    cx = build_complex(G, "yamada", max_edges=max_edges)
    chain_chi = graded_euler(cx)
    coh_chi = cohomology(cx).euler()
    g = g_polynomials(G)[1]
    if chain_chi != g:
        return CheckReport(
            "euler",
            False,
            f"chain euler {chain_chi.to_string('t', 'w')} differs from g = {g.to_string('t', 'w')}",
        )
    if coh_chi != g:
        return CheckReport(
            "euler",
            False,
            f"cohomology euler {coh_chi.to_string('t', 'w')} differs from g = {g.to_string('t', 'w')}",
        )
    return CheckReport("euler", True)


def check_permutation_invariance(
    G: Multigraph, sigma: Sequence[int], max_edges: int = 12
) -> CheckReport:
    """Cohomology tables (free ranks and torsion) survive edge relabelling."""
    H = permute_edges(G, sigma)
    for variant in VARIANTS:
        before = cohomology(build_complex(G, variant, max_edges=max_edges))
        after = cohomology(build_complex(H, variant, max_edges=max_edges))
        if before != after:
            for key in sorted(set(before.summands) | set(after.summands)):
                if before.summands.get(key) != after.summands.get(key):
                    return CheckReport(
                        "permutation_invariance",
                        False,
                        f"{variant} tables differ at (i,j,k)={key} under sigma={tuple(sigma)}",
                    )
    return CheckReport("permutation_invariance", True)


def check_retraction(G: Multigraph, max_edges: int = 12) -> CheckReport:
    """phi and psi are chain maps, psi o phi is the identity, and the
    induced composition is the identity on the tutte-variant cohomology."""
    maps = phi_psi(G, max_edges=max_edges)
    cx_t, cx_y = maps.tutte, maps.yamada
    for i in range(cx_y.height_count - 1):
        if maps.phi[i + 1] @ cx_t.differential(i) != cx_y.differential(i) @ maps.phi[i]:
            return CheckReport("retraction", False, f"phi fails to commute with d at height {i}")
        if maps.psi[i + 1] @ cx_y.differential(i) != cx_t.differential(i) @ maps.psi[i]:
            return CheckReport("retraction", False, f"psi fails to commute with d at height {i}")
    composition = []
    for i in range(cx_y.height_count):
        comp = maps.psi[i] @ maps.phi[i]
        if comp != IntMatrix.identity(cx_t.rank(i)):
            return CheckReport("retraction", False, f"psi o phi is not the identity at height {i}")
        composition.append(comp)
    table_t = cohomology(cx_t)
    ranks = induced_map_ranks(cx_t, cx_t, composition)
    expected = {key: s.free_rank for key, s in table_t.summands.items() if s.free_rank}
    if ranks != expected:
        return CheckReport(
            "retraction", False, f"induced composition ranks {ranks} differ from {expected}"
        )
    return CheckReport("retraction", True)


def check_deletion_contraction(G: Multigraph) -> CheckReport:
    """h(G) = h(G/e) - x^(-1) h(G-e) for every ordinary edge e.

    Vacuous pass when no edge is ordinary.
    """
    h = yamada_state_sum(G)
    x_inv = X.inverse()
    for e in range(G.edge_count):
        if classify_edge(G, e) != "ordinary":
            continue
        rhs = yamada_state_sum(reduce(G, e, "contract")) - x_inv * yamada_state_sum(
            reduce(G, e, "delete")
        )
        if h != rhs:
            return CheckReport(
                "deletion_contraction",
                False,
                f"edge {e}: h(G) = {h} but h(G/e) - x^-1 h(G-e) = {rhs}",
            )
    return CheckReport("deletion_contraction", True)


def check_projection(G: Multigraph, gamma: Iterable[int], max_edges: int = 12) -> CheckReport:
    """The subgraph projection commutes with both differentials."""
    gamma = tuple(gamma)
    for variant in VARIANTS:
        pm = projection_map(G, gamma, variant, max_edges=max_edges)
        src, dst = pm.source, pm.target
        for i in range(src.height_count - 1):
            lhs = pm.matrices[i + 1] @ src.differential(i)
            rhs = dst.differential(i) @ pm.matrices[i]
            if lhs != rhs:
                return CheckReport(
                    "projection",
                    False,
                    f"{variant} projection fails to commute at height {i} for gamma={gamma}",
                )
    return CheckReport("projection", True)


def default_sigma(G: Multigraph) -> tuple[int, ...]:
    return tuple(reversed(range(G.edge_count)))


def default_gamma(G: Multigraph) -> tuple[int, ...]:
    return tuple(range(G.edge_count - 1)) if G.edge_count else ()


def run_checks(
    G: Multigraph, names: Iterable[str] = CHECK_NAMES, max_edges: int = 12
) -> list[CheckReport]:
    """The named checkers with canonical default inputs (`default_sigma`,
    `default_gamma`), in fixed name order.

    Raises ValueError on a name outside CHECK_NAMES, before any check runs.
    """
    names = list(names)
    unknown = [name for name in names if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    runners = {
        "deletion_contraction": lambda: check_deletion_contraction(G),
        "euler": lambda: check_euler(G, max_edges=max_edges),
        "permutation_invariance": lambda: check_permutation_invariance(
            G, default_sigma(G), max_edges=max_edges
        ),
        "projection": lambda: check_projection(G, default_gamma(G), max_edges=max_edges),
        "retraction": lambda: check_retraction(G, max_edges=max_edges),
    }
    return [runners[name]() for name in CHECK_NAMES if name in names]


def corpus_graphs() -> list[Multigraph]:
    """The curated corpus: every multigraph on at most 3 vertices with at
    most 4 edges (edge multisets in sorted order), the named families
    with up to 4 edges, and the bigon and triangle in their customary
    edge orderings.
    """
    graphs: list[Multigraph] = []
    for v in range(4):
        slots = [(i, j) for i in range(v) for j in range(i, v)]
        for m in range(5):
            for combo in itertools.combinations_with_replacement(slots, m):
                graphs.append(Multigraph(v, tuple(combo)))
    for n in range(1, 5):
        graphs.append(tree_graph(n))
        graphs.append(bouquet_graph(n))
        graphs.append(multiedge_graph(n))
        graphs.append(cycle_graph(n))
    graphs.append(bigon())
    graphs.append(triangle())
    return graphs
