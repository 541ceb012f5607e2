"""Exact deletion-contraction graph polynomials and their categorification.

An integer-arithmetic engine that evaluates the two-variable state-sum
invariant of a multigraph (with the Tutte, chromatic, flow and Negami
specializations), builds the bigraded hypercube cochain complex whose
graded Euler characteristic recovers the rescaled invariant, computes
integer cohomology (free ranks and torsion per bidegree) from the
invariant factors of each bidegree block, and machine-checks the
structural identities relating all of these.

The package exports the README quick start, the independent oracles
(`closed_form`, `chromatic_count`, `corpus_graphs`) and the types they
return; everything else is imported from its submodule.
"""

from .cube import BigradedComplex, build_complex, graded_euler
from .homology import CohomologyTable, cohomology
from .invariants import (
    InvariantParams,
    chromatic_count,
    closed_form,
    eval_del_con,
    g_polynomials,
    specialization,
    yamada_state_sum,
)
from .laurent import BivariateLaurent
from .multigraph import Multigraph, build
from .verify import corpus_graphs

__version__ = "0.1.0"

__all__ = [
    "BigradedComplex",
    "BivariateLaurent",
    "CohomologyTable",
    "InvariantParams",
    "Multigraph",
    "build",
    "build_complex",
    "chromatic_count",
    "closed_form",
    "cohomology",
    "corpus_graphs",
    "eval_del_con",
    "g_polynomials",
    "graded_euler",
    "specialization",
    "yamada_state_sum",
]
