"""Machine checks of the structural properties of the construction.

Each checker runs one exact identity on a concrete graph and returns a
pass/fail report; on failure the report carries a witness describing the
first counterexample found. All comparisons are of canonical forms, so
there are no tolerances anywhere.

Checkers read complexes and tables through `complex_of(graph, variant)`
and `table_of(graph, variant)`; `run_checks` memoizes both for one run,
so each distinct (graph, variant) is built and eliminated once. A built
complex writes a height's blocks each time it is read, and the checkers
read a complex more than once, so the memo keeps the blocks it read and
each height is written once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Iterable, Sequence

from .cube import VARIANTS, BigradedComplex, build_complex, graded_euler, phi_psi, projection_map
from .homology import CohomologyTable, chain_map_defect, cohomology, summand_defect
from .invariants import g_polynomials, yamada_state_sum
from .laurent import X
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

ComplexOf = Callable[[Multigraph, str], BigradedComplex]
TableOf = Callable[[Multigraph, str], CohomologyTable]

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


def check_euler(G: Multigraph, complex_of: ComplexOf, table_of: TableOf) -> CheckReport:
    """Chain-level Euler characteristic == cohomology Euler == g(G; t, w)."""
    chain_chi = graded_euler(complex_of(G, "yamada"))
    coh_chi = table_of(G, "yamada").euler()
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
    G: Multigraph, sigma: Sequence[int], table_of: TableOf
) -> CheckReport:
    """Cohomology tables (free ranks and torsion) survive edge relabelling."""
    H = permute_edges(G, sigma)
    for variant in VARIANTS:
        before, after = table_of(G, variant), table_of(H, variant)
        if before != after:
            for key in sorted(set(before.summands) | set(after.summands)):
                if before.summands.get(key) != after.summands.get(key):
                    return CheckReport(
                        "permutation_invariance",
                        False,
                        f"{variant} tables differ at (i,j,k)={key} under sigma={tuple(sigma)}",
                    )
    return CheckReport("permutation_invariance", True)


def check_retraction(G: Multigraph, complex_of: ComplexOf, table_of: TableOf) -> CheckReport:
    """phi and psi are chain maps, psi o phi is the identity, and so the
    tutte table is a summand of the yamada one.

    The maps are target arrays (`phi_psi`), so psi o phi is the identity
    at height i exactly when psi[i][phi[i][l]] == l for every l. A retract
    is a direct summand: at every (i, j, k) the tutte free rank is at most
    the yamada one and the tutte torsion, split into prime powers, is a
    sub-multiset of the yamada torsion (`summand_defect`).
    """
    cx_t, cx_y = complex_of(G, "tutte"), complex_of(G, "yamada")
    phi, psi = phi_psi(cx_t, cx_y)
    defects = {"phi": chain_map_defect(cx_t, cx_y, phi), "psi": chain_map_defect(cx_y, cx_t, psi)}
    failing = [(h, name) for name, h in defects.items() if h is not None]
    if failing:
        h, name = min(failing)  # the lower height first, phi before psi on a tie
        return CheckReport("retraction", False, f"{name} fails to commute with d at height {h}")
    for i, (phi_i, psi_i) in enumerate(zip(phi, psi)):
        if not all(t >= 0 and psi_i[t] == l for l, t in enumerate(phi_i)):
            return CheckReport("retraction", False, f"psi o phi is not the identity at height {i}")
    key = summand_defect(table_of(G, "tutte"), table_of(G, "yamada"))
    if key is not None:
        return CheckReport(
            "retraction", False, f"tutte summand at {key} is not a summand of the yamada one"
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


def check_projection(G: Multigraph, gamma: Iterable[int], complex_of: ComplexOf) -> CheckReport:
    """The subgraph projection commutes with both differentials."""
    gamma = tuple(gamma)
    for variant in VARIANTS:
        src = complex_of(G, variant)
        dst, matrices = projection_map(src, gamma)
        height = chain_map_defect(src, dst, matrices)
        if height is not None:
            return CheckReport(
                "projection",
                False,
                f"{variant} projection fails to commute at height {height} for gamma={gamma}",
            )
    return CheckReport("projection", True)


def default_sigma(G: Multigraph) -> tuple[int, ...]:
    return tuple(reversed(range(G.edge_count)))


def default_gamma(G: Multigraph) -> tuple[int, ...]:
    return tuple(range(G.edge_count - 1)) if G.edge_count else ()


def run_checks(G: Multigraph, names: Iterable[str] = CHECK_NAMES) -> list[CheckReport]:
    """The named checkers with canonical default inputs (`default_sigma`,
    `default_gamma`), in fixed name order.

    Each complex is built and each table computed at most once per call.
    Raises ValueError on a name outside CHECK_NAMES, or on no name at all,
    before any check runs.
    """
    names = list(names)
    unknown = [name for name in names if name not in CHECK_NAMES]
    if unknown:
        raise ValueError(f"unknown checks: {', '.join(unknown)}")
    if not names:
        raise ValueError("no checks named")
    complex_of = cache(
        lambda H, variant: replace(cx := build_complex(H, variant), blocks=list(cx.blocks))
    )
    table_of = cache(lambda H, variant: cohomology(complex_of(H, variant)))
    runners = {
        "deletion_contraction": lambda: check_deletion_contraction(G),
        "euler": lambda: check_euler(G, complex_of, table_of),
        "permutation_invariance": lambda: check_permutation_invariance(
            G, default_sigma(G), table_of
        ),
        "projection": lambda: check_projection(G, default_gamma(G), complex_of),
        "retraction": lambda: check_retraction(G, complex_of, table_of),
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
