import dataclasses

import pytest

import graphhom.cube
import graphhom.verify
from graphhom.cube import build_complex, projection_map
from graphhom.homology import Summand, cohomology
from graphhom.multigraph import (
    Multigraph,
    bigon,
    bouquet_graph,
    build,
    multiedge_graph,
    permute_edges,
    tree_graph,
    triangle,
)
from graphhom.verify import (
    CHECK_NAMES,
    CheckReport,
    check_deletion_contraction,
    check_euler,
    check_permutation_invariance,
    check_projection,
    check_retraction,
    corpus_graphs,
    default_gamma,
    default_sigma,
    run_checks,
)

from conftest import record_builds
from matrix_route import contents, differential, map_matrix, matmul

SAMPLES = [
    build(0, []),
    build(1, []),
    bigon(),
    triangle(),
    tree_graph(2),
    bouquet_graph(2),
    multiedge_graph(3),
    build(3, [(0, 1), (0, 1), (1, 2), (2, 2)]),
]


def test_failing_report_needs_witness():
    with pytest.raises(ValueError):
        CheckReport("euler", False)
    report = CheckReport("euler", False, "because")
    assert report.to_json_dict() == {"name": "euler", "passed": False, "witness": "because"}


@pytest.mark.parametrize("G", SAMPLES, ids=lambda g: f"v{g.vertex_count}e{g.edge_count}")
def test_check_euler(G, complex_of, table_of):
    assert check_euler(G, complex_of, table_of).passed


@pytest.mark.parametrize("G", SAMPLES, ids=lambda g: f"v{g.vertex_count}e{g.edge_count}")
def test_check_permutation_invariance_default_sigma(G, table_of):
    assert check_permutation_invariance(G, default_sigma(G), table_of).passed


def test_check_permutation_invariance_specific_swaps(table_of):
    assert check_permutation_invariance(bigon(), (1, 0), table_of).passed
    assert check_permutation_invariance(triangle(), (1, 2, 0), table_of).passed
    assert check_permutation_invariance(triangle(), (0, 1, 2), table_of).passed


def test_check_permutation_invariance_rejects_bad_sigma(table_of):
    with pytest.raises(ValueError):
        check_permutation_invariance(bigon(), (0, 0), table_of)


@pytest.mark.parametrize("G", SAMPLES, ids=lambda g: f"v{g.vertex_count}e{g.edge_count}")
def test_check_retraction(G, complex_of, table_of):
    assert check_retraction(G, complex_of, table_of).passed


@pytest.mark.parametrize("G", SAMPLES, ids=lambda g: f"v{g.vertex_count}e{g.edge_count}")
def test_check_deletion_contraction(G):
    assert check_deletion_contraction(G).passed


def test_check_deletion_contraction_vacuous_on_tree():
    assert check_deletion_contraction(tree_graph(1)).passed


@pytest.mark.parametrize("G", SAMPLES, ids=lambda g: f"v{g.vertex_count}e{g.edge_count}")
def test_check_projection_default_gamma(G, complex_of):
    assert check_projection(G, default_gamma(G), complex_of).passed


def test_check_projection_specific_gammas(complex_of):
    assert check_projection(bigon(), [0], complex_of).passed
    assert check_projection(triangle(), [0, 2], complex_of).passed
    assert check_projection(triangle(), range(3), complex_of).passed
    with pytest.raises(ValueError):
        check_projection(bigon(), [7], complex_of)


def test_run_all_checks_order_and_verdicts():
    reports = run_checks(bigon())
    assert [r.name for r in reports] == list(CHECK_NAMES)
    assert all(r.passed for r in reports)


def test_run_checks_builds_each_complex_and_table_once(monkeypatch):
    """One check run builds one complex and one table per distinct (graph, variant):
    on K4, 6 complexes (G, its edge reversal and its projection subgraph, in both
    variants) and 4 tables (G and its reversal, in both variants). The projection
    targets are built by the private `_build`, with no `build_complex` call."""
    builds, tables = [], []

    def counting_build(G, variant, *args, **kwargs):
        builds.append((G, variant))
        return build_complex(G, variant, *args, **kwargs)

    def counting_cohomology(cx):
        tables.append((cx.graph, cx.variant))
        return cohomology(cx)

    monkeypatch.setattr(graphhom.verify, "build_complex", counting_build)
    monkeypatch.setattr(graphhom.cube, "build_complex", counting_build)
    monkeypatch.setattr(graphhom.verify, "cohomology", counting_cohomology)
    built = record_builds(monkeypatch, graphhom.cube)
    K4 = build(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    reports = run_checks(K4)
    assert all(r.passed for r in reports)
    H = permute_edges(K4, default_sigma(K4))
    sub = Multigraph(4, K4.edges[:-1])
    # first use, in check order: euler, permutation_invariance, projection
    assert builds == [(K4, "yamada"), (H, "yamada"), (K4, "tutte"), (H, "tutte")]
    assert [(cx.graph, cx.variant) for cx, _ in built] == builds + [
        (sub, "yamada"), (sub, "tutte")
    ]
    assert tables == [(K4, "yamada"), (H, "yamada"), (K4, "tutte"), (H, "tutte")]


def test_corpus_contents():
    corpus = corpus_graphs()
    assert len(corpus) == 269
    assert Multigraph(0, ()) in corpus
    assert bigon() in corpus
    assert triangle() in corpus
    assert tree_graph(4) in corpus
    assert all(g.vertex_count <= 5 and g.edge_count <= 4 for g in corpus)
    enumerated = [g for g in corpus if g.vertex_count <= 3]
    assert all(tuple(sorted(g.edges)) == g.edges for g in enumerated[:251])


def test_five_checkers_across_corpus_sample(corpus):
    # broad smoke over a spread of the corpus; the acceptance suite
    # covers the full corpus criterion by criterion
    for G in corpus[::23]:
        reports = run_checks(G)
        failed = [r for r in reports if not r.passed]
        assert not failed, (G, failed)


def test_permutation_invariance_full_corpus_reversal(corpus, table_of):
    for G in corpus:
        H = permute_edges(G, default_sigma(G))
        for variant in ("yamada", "tutte"):
            permuted = cohomology(build_complex(H, variant))
            assert table_of(G, variant).summands == permuted.summands, (G, variant)


def test_projection_chain_map_full_corpus(corpus, complex_of):
    for G in corpus:
        gamma = default_gamma(G)
        for variant in ("yamada", "tutte"):
            source = complex_of(G, variant)
            target, maps = projection_map(source, gamma)
            matrices = [map_matrix(f, target.rank(i)) for i, f in enumerate(maps)]
            for i in range(source.height_count - 1):
                lhs = matmul(matrices[i + 1], differential(source, i))
                rhs = matmul(differential(target, i), matrices[i])
                assert contents(lhs) == contents(rhs), (G, variant, i)


# Failure paths: each checker is fed one corrupted input and must fail with
# the witness naming the first counterexample.


BIGON_G = "t^3*w + t^3 + 3*t^2*w + 2*t^2 + 3*t*w + t + w"


def _kill_smallest_image(targets):
    """The target array with the image of the element whose image is the
    smallest replaced by -1 (killed)."""
    _, l = min((t, l) for l, t in enumerate(targets) if t >= 0)
    return targets[:l] + [-1] + targets[l + 1 :]


def _bump_summand(table, key):
    """The table with the free rank at (i, j, k) = key raised by one."""
    s = table.summands.get(key, Summand(0))
    return dataclasses.replace(
        table, summands={**table.summands, key: Summand(s.free_rank + 1, s.torsion)}
    )


def _corrupt_phi_psi(monkeypatch, drops):
    """Make the checkers' phi_psi kill one image of the named map at the given height."""
    real = graphhom.verify.phi_psi

    def corrupted(tutte, yamada):
        maps = dict(zip(("phi", "psi"), real(tutte, yamada)))
        for name, h in drops.items():
            maps[name][h] = _kill_smallest_image(maps[name][h])
        return maps["phi"], maps["psi"]

    monkeypatch.setattr(graphhom.verify, "phi_psi", corrupted)


@pytest.mark.parametrize(
    "drops, witness",
    [
        ({"phi": 2}, "phi fails to commute with d at height 1"),
        ({"psi": 2}, "psi fails to commute with d at height 1"),
        # the lower failing height is reported first, phi before psi on a tie
        ({"phi": 2, "psi": 1}, "psi fails to commute with d at height 0"),
        ({"phi": 1, "psi": 1}, "phi fails to commute with d at height 0"),
    ],
)
def test_check_retraction_fails_on_a_non_chain_map(
    monkeypatch, complex_of, table_of, drops, witness
):
    _corrupt_phi_psi(monkeypatch, drops)
    report = check_retraction(bigon(), complex_of, table_of)
    assert report.passed is False
    assert report.witness == witness


def test_check_retraction_fails_when_psi_phi_is_not_the_identity(
    monkeypatch, complex_of, table_of
):
    # one height, so no square to commute: only psi o phi can catch the killed image
    _corrupt_phi_psi(monkeypatch, {"psi": 0})
    report = check_retraction(build(1, []), complex_of, table_of)
    assert report.passed is False
    assert report.witness == "psi o phi is not the identity at height 0"


def test_check_retraction_fails_on_a_wrong_tutte_table(complex_of, table_of):
    def wrong_table(G, variant):
        table = table_of(G, variant)
        return _bump_summand(table, (0, 1, 0)) if variant == "tutte" else table

    # the bigon's yamada free rank at (0, 1, 0) is 1, the bumped tutte one 2
    assert table_of(bigon(), "yamada").free_rank(0, 1, 0) == 1
    report = check_retraction(bigon(), complex_of, wrong_table)
    assert report.passed is False
    assert report.witness == "tutte summand at (0, 1, 0) is not a summand of the yamada one"


@pytest.mark.parametrize("variant", ["yamada", "tutte"])
def test_check_projection_fails_on_a_non_chain_map(monkeypatch, complex_of, variant):
    real = graphhom.verify.projection_map

    def corrupted(source, gamma):
        target, maps = real(source, gamma)
        if source.variant == variant:
            maps[1] = _kill_smallest_image(maps[1])
        return target, maps

    monkeypatch.setattr(graphhom.verify, "projection_map", corrupted)
    report = check_projection(bigon(), [0], complex_of)
    assert report.passed is False
    assert report.witness == f"{variant} projection fails to commute at height 0 for gamma=(0,)"


def test_check_euler_fails_on_a_wrong_g(monkeypatch, complex_of, table_of):
    real = graphhom.verify.g_polynomials
    monkeypatch.setattr(graphhom.verify, "g_polynomials", lambda G: (real(G)[0], real(G)[1] + 1))
    report = check_euler(bigon(), complex_of, table_of)
    assert report.passed is False
    assert report.witness == f"chain euler {BIGON_G} differs from g = {BIGON_G} + 1"


def test_check_euler_fails_on_a_wrong_table(complex_of, table_of):
    def wrong_table(G, variant):
        return _bump_summand(table_of(G, variant), (0, 1, 0))

    report = check_euler(bigon(), complex_of, wrong_table)
    assert report.passed is False
    assert report.witness == (
        "cohomology euler t^3*w + t^3 + 3*t^2*w + 2*t^2 + 3*t*w + 2*t + w"
        f" differs from g = {BIGON_G}"
    )


@pytest.mark.parametrize("variant", ["yamada", "tutte"])
def test_check_permutation_invariance_fails_on_a_changed_table(table_of, variant):
    G = triangle()

    def wrong_table(H, v):
        table = table_of(H, v)
        return _bump_summand(table, (1, 2, 0)) if H != G and v == variant else table

    report = check_permutation_invariance(G, (1, 2, 0), wrong_table)
    assert report.passed is False
    assert report.witness == f"{variant} tables differ at (i,j,k)=(1, 2, 0) under sigma=(1, 2, 0)"
