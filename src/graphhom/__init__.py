"""Exact deletion-contraction graph polynomials and their categorification.

An integer-arithmetic engine that evaluates the two-variable state-sum
invariant of a multigraph (with the Tutte, chromatic, flow and Negami
specializations), builds the bigraded hypercube cochain complex whose
graded Euler characteristic recovers the rescaled invariant, computes
integer cohomology (free ranks and torsion per bidegree) through Smith
normal form, and machine-checks the structural identities relating all
of these.
"""

from .cube import (
    VARIANTS,
    BigradedComplex,
    ProjectionMaps,
    RetractionMaps,
    build_complex,
    graded_euler,
    per_edge_map,
    phi_psi,
    projection_map,
)
from .homology import (
    CohomologyTable,
    SNFResult,
    Summand,
    cohomology,
    induced_map_ranks,
    kernel_basis,
    smith_normal_form,
    verify_snf,
)
from .invariants import (
    InvariantParams,
    chromatic_count,
    closed_form,
    eval_del_con,
    g_polynomials,
    specialization,
    yamada_state_sum,
)
from .laurent import (
    ONE,
    X,
    Y,
    ZERO,
    BivariateLaurent,
    evaluate,
    geometric_sum,
    substitute_shift,
)
from .matrices import IntMatrix
from .multigraph import (
    Multigraph,
    StateStats,
    StateSubset,
    all_states,
    bigon,
    bouquet_graph,
    build,
    classify_edge,
    cycle_graph,
    multiedge_graph,
    permute_edges,
    reduce,
    state_stats,
    tree_graph,
    triangle,
)
from .verify import (
    CHECK_NAMES,
    CheckReport,
    check_deletion_contraction,
    check_euler,
    check_permutation_invariance,
    check_projection,
    check_retraction,
    corpus_graphs,
    run_all_checks,
)

__version__ = "0.1.0"

__all__ = [
    "BigradedComplex",
    "BivariateLaurent",
    "CHECK_NAMES",
    "CheckReport",
    "CohomologyTable",
    "IntMatrix",
    "InvariantParams",
    "Multigraph",
    "ONE",
    "ProjectionMaps",
    "RetractionMaps",
    "SNFResult",
    "StateStats",
    "StateSubset",
    "Summand",
    "VARIANTS",
    "X",
    "Y",
    "ZERO",
    "all_states",
    "bigon",
    "bouquet_graph",
    "build",
    "build_complex",
    "check_deletion_contraction",
    "check_euler",
    "check_permutation_invariance",
    "check_projection",
    "check_retraction",
    "chromatic_count",
    "classify_edge",
    "closed_form",
    "cohomology",
    "corpus_graphs",
    "cycle_graph",
    "eval_del_con",
    "evaluate",
    "g_polynomials",
    "geometric_sum",
    "graded_euler",
    "induced_map_ranks",
    "kernel_basis",
    "multiedge_graph",
    "per_edge_map",
    "permute_edges",
    "phi_psi",
    "projection_map",
    "reduce",
    "run_all_checks",
    "smith_normal_form",
    "specialization",
    "state_stats",
    "substitute_shift",
    "tree_graph",
    "triangle",
    "verify_snf",
    "yamada_state_sum",
]
