import pytest

from graphhom.multigraph import (
    Multigraph,
    bigon,
    bouquet_graph,
    build,
    multiedge_graph,
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
def test_check_euler(G):
    assert check_euler(G).passed


@pytest.mark.parametrize("G", SAMPLES, ids=lambda g: f"v{g.vertex_count}e{g.edge_count}")
def test_check_permutation_invariance_default_sigma(G):
    assert check_permutation_invariance(G, default_sigma(G)).passed


def test_check_permutation_invariance_specific_swaps():
    assert check_permutation_invariance(bigon(), (1, 0)).passed
    assert check_permutation_invariance(triangle(), (1, 2, 0)).passed
    assert check_permutation_invariance(triangle(), (0, 1, 2)).passed


def test_check_permutation_invariance_rejects_bad_sigma():
    with pytest.raises(ValueError):
        check_permutation_invariance(bigon(), (0, 0))


@pytest.mark.parametrize("G", SAMPLES, ids=lambda g: f"v{g.vertex_count}e{g.edge_count}")
def test_check_retraction(G):
    assert check_retraction(G).passed


@pytest.mark.parametrize("G", SAMPLES, ids=lambda g: f"v{g.vertex_count}e{g.edge_count}")
def test_check_deletion_contraction(G):
    assert check_deletion_contraction(G).passed


def test_check_deletion_contraction_vacuous_on_tree():
    assert check_deletion_contraction(tree_graph(1)).passed


@pytest.mark.parametrize("G", SAMPLES, ids=lambda g: f"v{g.vertex_count}e{g.edge_count}")
def test_check_projection_default_gamma(G):
    assert check_projection(G, default_gamma(G)).passed


def test_check_projection_specific_gammas():
    assert check_projection(bigon(), [0]).passed
    assert check_projection(triangle(), [0, 2]).passed
    assert check_projection(triangle(), range(3)).passed
    with pytest.raises(ValueError):
        check_projection(bigon(), [7])


def test_run_all_checks_order_and_verdicts():
    reports = run_checks(bigon())
    assert [r.name for r in reports] == list(CHECK_NAMES)
    assert all(r.passed for r in reports)


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
    from graphhom.cube import build_complex
    from graphhom.homology import cohomology
    from graphhom.multigraph import permute_edges

    for G in corpus:
        H = permute_edges(G, default_sigma(G))
        for variant in ("yamada", "tutte"):
            permuted = cohomology(build_complex(H, variant))
            assert table_of(G, variant).summands == permuted.summands, (G, variant)


def test_projection_chain_map_full_corpus(corpus, complex_of):
    from graphhom.cube import projection_map

    for G in corpus:
        gamma = default_gamma(G)
        for variant in ("yamada", "tutte"):
            pm = projection_map(G, gamma, variant, source=complex_of(G, variant))
            for i in range(pm.source.height_count - 1):
                lhs = pm.matrices[i + 1] @ pm.source.differential(i)
                rhs = pm.target.differential(i) @ pm.matrices[i]
                assert lhs == rhs, (G, variant, i)
