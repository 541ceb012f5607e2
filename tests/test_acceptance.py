"""Acceptance suite: one test per criterion, exact equality throughout.

Every test prints a single PASS/FAIL line (visible with `pytest -s` or
on failure); run the whole file with `pytest tests/test_acceptance.py -v`.
"""

import random

from graphhom.cube import graded_euler, phi_psi
from graphhom.homology import Summand
from graphhom.invariants import (
    chromatic_count,
    closed_form,
    eval_del_con,
    g_polynomials,
    specialization,
    yamada_state_sum,
)
from graphhom.laurent import X, Y, BivariateLaurent, evaluate
from graphhom.matrices import _eliminate
from graphhom.multigraph import (
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
from graphhom.verify import check_deletion_contraction

from matrix_route import (
    contents,
    determinantal_factors,
    differential,
    from_rows,
    identity,
    map_matrix,
    matmul,
)

P = BivariateLaurent

BIGON_YAMADA = {
    (0, 1, 0): Summand(1),
    (0, 2, 0): Summand(1),
    (2, 2, 0): Summand(1),
    (2, 3, 0): Summand(1),
    (2, 0, 1): Summand(1),
    (2, 1, 1): Summand(3),
    (2, 2, 1): Summand(3),
    (2, 3, 1): Summand(1),
}
BIGON_TUTTE = {
    (0, 1, 0): Summand(1),
    (0, 2, 0): Summand(1),
    (2, 0, 1): Summand(1),
    (2, 1, 1): Summand(1),
}
# -(1+t)^2 + (1+t)^3 (1+w); the coefficient of t^3*w is 1
BIGON_G = P({(1, 0): 1, (2, 0): 2, (3, 0): 1, (0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1})

FAMILY = {
    "tree": tree_graph,
    "bouquet": bouquet_graph,
    "multiedge": multiedge_graph,
    "cycle": cycle_graph,
}


def _report(num: int, description: str, failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    print(f"criterion {num:2d} [{verdict}] {description}")
    assert not failures, f"criterion {num}: {failures[:3]}"


def test_criterion_01_bigon_yamada_cohomology(table_of):
    table = table_of(bigon(), "yamada")
    failures = []
    if table.summands != BIGON_YAMADA:
        failures.append(table.summands)
    if table.height_count != 3:
        failures.append(f"height_count {table.height_count}")
    _report(1, "golden bigon cohomology, yamada variant", failures)


def test_criterion_02_bigon_tutte_cohomology(table_of):
    table = table_of(bigon(), "tutte")
    failures = []
    if table.summands != BIGON_TUTTE:
        failures.append(table.summands)
    _report(2, "golden bigon cohomology, tutte variant", failures)


def test_criterion_03_euler_identity_on_corpus(corpus, complex_of, table_of):
    failures = []
    for G in corpus:
        g = g_polynomials(G)[1]
        if graded_euler(complex_of(G, "yamada")) != g:
            failures.append(("chain", G))
        if table_of(G, "yamada").euler() != g:
            failures.append(("cohomology", G))
    if table_of(bigon(), "yamada").euler() != BIGON_G:
        failures.append("bigon euler value")
    _report(3, "graded Euler characteristic equals g(G;t,w) across the corpus", failures)


def test_criterion_04_d_squared_and_bidegrees(corpus, complex_of):
    failures = []
    for G in corpus:
        for variant in ("yamada", "tutte"):
            cx = complex_of(G, variant)
            differentials = [differential(cx, i) for i in range(cx.height_count - 1)]
            for i in range(len(differentials) - 1):
                if not matmul(differentials[i + 1], differentials[i]).is_zero():
                    failures.append((G, variant, i))
            bidegree_of = [
                {pos: jk for jk, idx in level.items() for pos in idx}
                for level in cx.bidegree_index
            ]
            for i, diff in enumerate(differentials):
                for r, c, _ in diff.sorted_entries():
                    if bidegree_of[i + 1][r] != bidegree_of[i][c]:
                        failures.append((G, variant, i, r, c))
    _report(4, "d^2 = 0 and bidegree preservation, both variants", failures)


def test_criterion_05_edge_order_invariance(corpus, table_of):
    from graphhom.cube import build_complex
    from graphhom.homology import cohomology

    rng = random.Random(20250810)
    eligible = [G for G in corpus if G.edge_count >= 2]
    failures = []
    for _ in range(20):
        G = rng.choice(eligible)
        sigma = list(range(G.edge_count))
        rng.shuffle(sigma)
        H = permute_edges(G, sigma)
        for variant in ("yamada", "tutte"):
            if table_of(G, variant).summands != cohomology(build_complex(H, variant)).summands:
                failures.append((G, tuple(sigma), variant))
    _report(5, "cohomology invariant under 20 random edge permutations", failures)


def test_criterion_06_retraction_on_corpus(corpus, complex_of, table_of):
    failures = []
    for G in corpus:
        cx_t = complex_of(G, "tutte")
        cx_y = complex_of(G, "yamada")
        phi, psi = phi_psi(cx_t, cx_y)
        phi = [map_matrix(f, cx_y.rank(i)) for i, f in enumerate(phi)]
        psi = [map_matrix(f, cx_t.rank(i)) for i, f in enumerate(psi)]
        for i in range(cx_y.height_count - 1):
            d_t, d_y = differential(cx_t, i), differential(cx_y, i)
            if contents(matmul(phi[i + 1], d_t)) != contents(matmul(d_y, phi[i])):
                failures.append((G, "phi", i))
            if contents(matmul(psi[i + 1], d_y)) != contents(matmul(d_t, psi[i])):
                failures.append((G, "psi", i))
        for i in range(cx_y.height_count):
            if contents(matmul(psi[i], phi[i])) != contents(identity(cx_t.rank(i))):
                failures.append((G, "psi o phi", i))
        table_t = table_of(G, "tutte")
        table_y = table_of(G, "yamada")
        for (i, j, k), s in table_t.summands.items():
            if s.free_rank > table_y.free_rank(i, j, k):
                failures.append((G, "rank inequality", (i, j, k)))
    _report(6, "phi/psi chain maps, psi o phi = id, H_T <= H_Y ranks", failures)


def test_criterion_07_polynomial_cross_validation(corpus):
    yam = specialization("yamada")
    rows = {name: specialization(name) for name in ("tutte", "chromatic", "flow", "yamada")}
    rows["negami"] = specialization("negami")
    failures = []
    for G in corpus:
        if yamada_state_sum(G) != eval_del_con(G, yam):
            failures.append(("state sum vs recursion", G))
    for kind, make in FAMILY.items():
        for n in range(1, 6):
            G = make(n)
            if closed_form(kind, n, yam) != yamada_state_sum(G):
                failures.append(("closed vs state sum", kind, n))
            for name, row in rows.items():
                if closed_form(kind, n, row) != eval_del_con(G, row):
                    failures.append(("closed vs recursion", kind, n, name))
    expected = X * Y - 1
    for G in (bigon(), triangle(), bouquet_graph(1)):
        if yamada_state_sum(G) != expected:
            failures.append(("xy-1 identity", G))
    if yamada_state_sum(tree_graph(1)) != 0:
        failures.append("h(T1) should vanish")
    _report(7, "state sum, recursion and closed forms agree", failures)


def test_criterion_08_chromatic_oracle(corpus):
    chrom = specialization("chromatic")
    failures = []
    for G in corpus:
        if G.vertex_count > 6:
            continue
        poly = eval_del_con(G, chrom)
        for lam in range(6):
            if evaluate(poly, lam, 0) != chromatic_count(G, lam):
                failures.append((G, lam))
    _report(8, "chromatic row equals brute-force coloring counts", failures)


def test_criterion_09_snf_self_check():
    rng = random.Random(99)
    failures = []
    for trial in range(100):
        m = rng.randint(1, 8)
        n = rng.randint(1, 8)
        mat = from_rows([[rng.randint(-20, 20) for _ in range(n)] for _ in range(m)], n)
        if _eliminate(mat)[0] != determinantal_factors(mat):
            failures.append(trial)
    _report(9, "factors equal determinantal divisor quotients, 100 random matrices", failures)


def test_criterion_10_deletion_contraction_relation(corpus):
    x_inv = X.inverse()
    failures = []
    for G in corpus:
        h = yamada_state_sum(G)
        for e in range(G.edge_count):
            if classify_edge(G, e) != "ordinary":
                continue
            rhs = yamada_state_sum(reduce(G, e, "contract")) - x_inv * yamada_state_sum(
                reduce(G, e, "delete")
            )
            if h != rhs:
                failures.append((G, e))
        if not check_deletion_contraction(G).passed:
            failures.append((G, "checker"))
    _report(10, "deletion-contraction relation at every ordinary edge", failures)
