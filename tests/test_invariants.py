import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphhom.invariants
import graphhom.laurent
from graphhom.invariants import (
    InvariantParams,
    chromatic_count,
    closed_form,
    eval_del_con,
    g_polynomials,
    specialization,
    yamada_state_sum,
)
from graphhom.laurent import ONE, X, Y, ZERO, BivariateLaurent, evaluate
from graphhom.multigraph import (
    Multigraph,
    bigon,
    bouquet_graph,
    build,
    classify_edge,
    cycle_graph,
    multiedge_graph,
    permute_edges,
    reduce,
    state_histogram,
    tree_graph,
    triangle,
)

P = BivariateLaurent

ROWS = {
    "tutte": specialization("tutte"),
    "chromatic": specialization("chromatic"),
    "flow": specialization("flow"),
    "yamada": specialization("yamada"),
    "negami": specialization("negami"),
}

FAMILY = {
    "tree": tree_graph,
    "bouquet": bouquet_graph,
    "multiedge": multiedge_graph,
    "cycle": cycle_graph,
}


def wedge(H, K):
    """Join H and K by identifying vertex 0 of both."""
    offset = H.vertex_count - 1

    def remap(v):
        return 0 if v == 0 else v + offset

    edges = H.edges + tuple((remap(u), remap(v)) for u, v in K.edges)
    return Multigraph(H.vertex_count + K.vertex_count - 1, edges)


def test_state_sum_examples():
    assert yamada_state_sum(build(0, [])) == ONE
    assert yamada_state_sum(bigon()) == X * Y - 1
    assert yamada_state_sum(tree_graph(1)) == ZERO
    assert yamada_state_sum(bouquet_graph(1)) == X * Y - 1
    assert yamada_state_sum(build(1, [])) == X


def test_state_sum_disjoint_union_multiplies():
    # two disjoint loops on separate vertices
    G = build(2, [(0, 0), (1, 1)])
    assert yamada_state_sum(G) == (X * Y - 1) ** 2


def test_g_polynomials_examples():
    g_tilde, g = g_polynomials(bigon())
    assert g_tilde == P({(3, 1): 1, (2, 0): -1})
    assert g == P(
        {(1, 0): 1, (2, 0): 2, (3, 0): 1, (0, 1): 1, (1, 1): 3, (2, 1): 3, (3, 1): 1}
    )
    assert g_polynomials(build(0, [])) == (ONE, ONE)
    assert g_polynomials(build(1, [])) == (X, P({(0, 0): 1, (1, 0): 1}))


def test_g_polynomials_refuse_x_degree_over_limit(monkeypatch):
    # the bigon's g~ = x^3 y - x^2 has x-degree |E| + b0 = 3
    monkeypatch.setattr(graphhom.invariants, "MAX_G_DEGREE", 3)
    assert g_polynomials(bigon())[0] == P({(3, 1): 1, (2, 0): -1})
    monkeypatch.setattr(graphhom.invariants, "MAX_G_DEGREE", 2)
    with pytest.raises(ValueError, match="x-degree 3, over the limit of 2"):
        g_polynomials(bigon())


def test_g_polynomials_refuse_an_impossible_histogram(monkeypatch):
    # one state with |S| = 0 and b0 = 0 on two vertices: b1 = 0 - 2 + 0 < 0
    monkeypatch.setattr(graphhom.invariants, "state_histogram", lambda G: {(0, 0): 1})
    with pytest.raises(RuntimeError, match="negative exponent"):
        g_polynomials(bigon())


def test_g_tilde_has_nonnegative_exponents(corpus):
    for G in corpus[::7]:
        assert not g_polynomials(G)[0].has_negative_exponents()


def test_eval_del_con_base_cases():
    yam = ROWS["yamada"]
    assert eval_del_con(tree_graph(1), yam) == ZERO
    assert eval_del_con(bouquet_graph(1), yam) == X * Y - 1
    assert eval_del_con(bigon(), ROWS["tutte"]) == X + Y
    assert eval_del_con(build(1, []), yam) == X
    assert eval_del_con(build(0, []), yam) == ONE


def test_eval_del_con_matches_state_sum_on_samples():
    yam = ROWS["yamada"]
    for G in (bigon(), triangle(), bouquet_graph(3), multiedge_graph(3), tree_graph(3)):
        assert eval_del_con(G, yam) == yamada_state_sum(G)


def _eval_del_con_recursive(G, params):
    """The deletion-contraction recursion on edge 0, as a reference for
    `eval_del_con`; minors met along several branches are evaluated once."""

    @functools.cache
    def value(H):
        if H.edge_count == 0:
            return params.c_inverse ** H.vertex_count
        kind = classify_edge(H, 0)
        if kind == "loop":
            return params.c * params.e * value(reduce(H, 0, "delete"))
        if kind == "isthmus":
            return params.c * params.d * value(reduce(H, 0, "contract"))
        return params.a * value(reduce(H, 0, "contract")) + params.b * value(reduce(H, 0, "delete"))

    return value(G)


@st.composite
def multigraphs(draw, max_vertices=5, max_edges=8):
    """Loops, parallel edges and isolated vertices; the empty graph too."""
    v = draw(st.integers(0, max_vertices))
    if not v:
        return Multigraph(0, ())
    endpoint = st.integers(0, v - 1)
    m = draw(st.integers(0, max_edges))
    return Multigraph(v, tuple((draw(endpoint), draw(endpoint)) for _ in range(m)))


exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
laurents = st.dictionaries(exponents, st.integers(-3, 3), max_size=3).map(P)
units = st.builds(lambda sign, exps: P({exps: sign}), st.sampled_from((1, -1)), exponents)
coefficient_rows = st.builds(InvariantParams, laurents, laurents, units, laurents, laurents)


@settings(max_examples=100, deadline=None)
@given(multigraphs(), coefficient_rows)
def test_eval_del_con_matches_recursion(G, drawn):
    """The identity is polynomial in (a, b, c, d, e): the named rows and
    random coefficients, non-units and zero among them."""
    for row in (*ROWS.values(), drawn):
        assert eval_del_con(G, row) == _eval_del_con_recursive(G, row)


def test_chromatic_row_known_values():
    chrom = ROWS["chromatic"]
    assert eval_del_con(build(1, []), chrom) == X
    assert eval_del_con(tree_graph(1), chrom) == X * X - X
    assert eval_del_con(triangle(), chrom) == P({(3, 0): 1, (2, 0): -3, (1, 0): 2})
    assert eval_del_con(bouquet_graph(1), chrom) == ZERO


def test_flow_row_known_values():
    flow = ROWS["flow"]
    assert eval_del_con(triangle(), flow) == X - 1
    assert eval_del_con(tree_graph(2), flow) == ZERO


def test_closed_form_examples():
    assert closed_form("tree", 3, ROWS["tutte"]) == P({(3, 0): 1})
    assert closed_form("multiedge", 2, ROWS["yamada"]) == X * Y - 1
    assert closed_form("multiedge", 2, ROWS["yamada"]) == yamada_state_sum(bigon())
    assert closed_form("cycle", 3, ROWS["chromatic"]) == P({(3, 0): 1, (2, 0): -3, (1, 0): 2})
    with pytest.raises(ValueError):
        closed_form("tree", 0, ROWS["tutte"])
    with pytest.raises(ValueError):
        closed_form("star", 2, ROWS["tutte"])


def test_closed_form_n1_collapses_to_base_cases():
    for row in ROWS.values():
        assert closed_form("tree", 1, row) == row.d
        assert closed_form("bouquet", 1, row) == row.e
        assert closed_form("multiedge", 1, row) == row.d
        assert closed_form("cycle", 1, row) == row.e


@pytest.mark.parametrize("kind", sorted(FAMILY))
@pytest.mark.parametrize("name", sorted(ROWS))
def test_closed_form_matches_recursion(kind, name):
    for n in range(1, 5):
        G = FAMILY[kind](n)
        assert closed_form(kind, n, ROWS[name]) == eval_del_con(G, ROWS[name])


def test_specialization_rows():
    yam = ROWS["yamada"]
    assert (yam.a, yam.b, yam.c, yam.d, yam.e) == (
        ONE,
        -X.inverse(),
        X.inverse(),
        ZERO,
        X * Y - 1,
    )
    tut = ROWS["tutte"]
    assert (tut.a, tut.b, tut.c, tut.d, tut.e) == (ONE, ONE, ONE, X, Y)
    flow = ROWS["flow"]
    assert (flow.a, flow.b, flow.c, flow.d, flow.e) == (ONE, P.from_int(-1), ONE, ZERO, X - 1)
    chrom = ROWS["chromatic"]
    assert (chrom.a, chrom.b, chrom.c, chrom.d, chrom.e) == (
        P.from_int(-1),
        ONE,
        X.inverse(),
        X * X - X,
        ZERO,
    )
    neg = ROWS["negami"]
    assert (neg.a, neg.b, neg.c, neg.d, neg.e) == (X, Y, ONE, X + Y, X + Y)
    neg_minus = specialization("negami", negami_t=-1)
    assert (neg_minus.c, neg_minus.d, neg_minus.e) == (P.from_int(-1), Y - X, -X - Y)


def test_specialization_errors():
    with pytest.raises(ValueError):
        specialization("jones")
    with pytest.raises(ValueError):
        specialization("negami", negami_t=2)
    with pytest.raises(ValueError):
        specialization("negami", negami_t=0)


def test_invariant_params_requires_unit_c():
    with pytest.raises(ValueError):
        InvariantParams(ONE, ONE, X + 1, X, Y)
    with pytest.raises(ValueError):
        InvariantParams(ONE, ONE, 2 * X, X, Y)


def test_chromatic_count_examples():
    assert chromatic_count(triangle(), 3) == 6
    assert chromatic_count(tree_graph(1), 2) == 2
    assert chromatic_count(bouquet_graph(1), 5) == 0
    assert chromatic_count(build(0, []), 4) == 1
    assert chromatic_count(build(2, []), 3) == 9


def test_chromatic_count_limits():
    with pytest.raises(ValueError):
        chromatic_count(triangle(), 9)
    with pytest.raises(ValueError):
        chromatic_count(build(9, []), 2)
    with pytest.raises(ValueError):
        chromatic_count(triangle(), -1)


def test_chromatic_row_matches_brute_force_on_samples():
    chrom = ROWS["chromatic"]
    for G in (triangle(), bigon(), tree_graph(3), build(3, [(0, 1), (0, 1), (1, 2)])):
        poly = eval_del_con(G, chrom)
        for lam in range(6):
            assert evaluate(poly, lam, 0) == chromatic_count(G, lam)


@pytest.mark.parametrize("name", sorted(ROWS))
def test_wedge_multiplicativity(name):
    row = ROWS[name]
    pairs = [
        (tree_graph(1), tree_graph(1)),
        (bigon(), bouquet_graph(1)),
        (triangle(), bigon()),
        (tree_graph(2), bouquet_graph(2)),
    ]
    for H, K in pairs:
        assert eval_del_con(wedge(H, K), row) == row.c * eval_del_con(H, row) * eval_del_con(
            K, row
        )


def test_deletion_contraction_axiom_for_state_sum():
    for G in (bigon(), triangle(), multiedge_graph(3)):
        h = yamada_state_sum(G)
        for e in range(G.edge_count):
            if classify_edge(G, e) != "ordinary":
                continue
            contracted = yamada_state_sum(reduce(G, e, "contract"))
            deleted = yamada_state_sum(reduce(G, e, "delete"))
            assert h == contracted - X.inverse() * deleted


def _ladder(rungs):
    """Ladder graph, each rung followed by the two rails to the next one."""
    edges = []
    for i in range(rungs):
        edges.append((2 * i, 2 * i + 1))
        if i + 1 < rungs:
            edges += [(2 * i, 2 * i + 2), (2 * i + 1, 2 * i + 3)]
    return build(2 * rungs, edges)


def _shuffled(G, seed):
    """G with its edges in a seeded random order."""
    return permute_edges(G, random.Random(seed).sample(range(G.edge_count), G.edge_count))


@pytest.mark.parametrize(
    "kind,seed",
    [
        pytest.param(kind, seed, id=kind + ("-shuffled" if seed else ""))
        for kind in sorted(FAMILY)
        for seed in (None, 2306)
    ],
)
def test_state_sum_matches_closed_form_at_40_edges(kind, seed):
    # 2^40 states: the state sums count them by frontier, not one by one, in
    # an order of their own, whatever order the edges came in
    G = FAMILY[kind](40)
    if seed:
        G = _shuffled(G, seed)
    assert yamada_state_sum(G) == closed_form(kind, 40, ROWS["yamada"])
    for row in ROWS.values():
        assert eval_del_con(G, row) == closed_form(kind, 40, row)


@pytest.mark.parametrize("seed", [None, 2307], ids=["built", "shuffled"])
def test_state_sum_deletion_contraction_on_a_40_edge_ladder(seed):
    G = _ladder(14)
    assert G.edge_count == 40
    if seed:
        G = _shuffled(G, seed)
    h = yamada_state_sum(G)
    for e in range(G.edge_count):
        assert classify_edge(G, e) == "ordinary"
        contracted = yamada_state_sum(reduce(G, e, "contract"))
        deleted = yamada_state_sum(reduce(G, e, "delete"))
        assert h == contracted - X.inverse() * deleted


def test_eval_del_con_closed_forms_on_a_40_edge_ladder():
    G = _ladder(14)
    assert eval_del_con(G, ROWS["chromatic"]) == X * (X - 1) * (X * X - 3 * X + 3) ** 13
    # spanning trees of the n-rung ladder: t_n = 4 t_(n-1) - t_(n-2), t_1 = 1, t_2 = 4
    assert evaluate(eval_del_con(G, ROWS["tutte"]), 1, 1) == 29_354_524


def test_state_sum_matches_recursion_on_random_loopless_multigraphs():
    """A cycle through every vertex in random order plus random chords,
    parallel ones allowed: no loop and no isthmus."""
    rng = random.Random(1801)
    for _ in range(4):
        vertices, edge_count = rng.randint(5, 10), rng.randint(12, 14)
        order = rng.sample(range(vertices), vertices)
        edges = [(order[i], order[(i + 1) % vertices]) for i in range(vertices)]
        while len(edges) < edge_count:
            edges.append(tuple(rng.sample(range(vertices), 2)))
        G = build(vertices, edges)
        for row in ROWS.values():
            assert eval_del_con(G, row) == _eval_del_con_recursive(G, row)


# Loopless, 14 edges on 8 vertices: a Hamiltonian cycle plus six chords,
# two of them doubled; r = 7 and nu = 7.
CHORDS14 = build(
    8,
    [(7, 5), (5, 6), (6, 4), (4, 0), (0, 2), (2, 1), (1, 3), (3, 7),
     (6, 5), (2, 1), (0, 3), (0, 3), (4, 3), (5, 4)],
)

# Polynomial products (`laurent._product`, whether `*` or `eval_del_con`
# calls it) and constructions (`BivariateLaurent.__init__` and `_adopt`)
# during one `eval_del_con` call on a connected graph, for every row:
# 3 (r + nu) + 2 to build the two power tables, min(r, nu) + 1 for the rows
# (or columns), 2 for cd - a and ce - b, 1 for c^(-1) ** 1 and 1 to shift
# by it. The count is fixed by r and nu, not by how many (i, j) cells of
# the histogram are nonzero.
OPERATION_COUNTS = {
    "chords14": (7, 7, {"products": 56, "constructions": 10}),
    "ladder14": (27, 13, {"products": 140, "constructions": 10}),
}


def _count_operations(monkeypatch, G, row):
    counts = {"products": 0, "constructions": 0}

    def counted(name, real):
        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        return wrapper

    for module in (graphhom.laurent, graphhom.invariants):
        monkeypatch.setattr(module, "_product", counted("products", module._product))
    monkeypatch.setattr(P, "__init__", counted("constructions", P.__init__))
    monkeypatch.setattr(P, "_adopt", classmethod(counted("constructions", P._adopt.__func__)))
    value = eval_del_con(G, row)
    monkeypatch.undo()
    return counts, value


@pytest.mark.parametrize("name", sorted(OPERATION_COUNTS))
def test_eval_del_con_operation_count_is_bounded_by_rank_and_nullity(name, monkeypatch):
    G = CHORDS14 if name == "chords14" else _ladder(14)
    r, nu, expected = OPERATION_COUNTS[name]
    cells = {(b0, size - G.vertex_count + b0) for size, b0 in state_histogram(G)}
    assert (len({i for i, _ in cells}), len({j for _, j in cells})) == (r + 1, nu + 1)
    if name == "ladder14":
        # one product per nonzero cell (197 of them) would be over the bound
        assert len(cells) > 4 * (r + nu) + 8
    for row in ROWS.values():
        counts, value = _count_operations(monkeypatch, G, row)
        assert counts == expected
        assert counts["products"] <= 4 * (r + nu) + 8
        assert value == eval_del_con(G, row)
