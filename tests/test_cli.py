import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import graphhom.cli
import graphhom.cube
import graphhom.homology
import graphhom.multigraph
import graphhom.verify
from graphhom.cli import POLY_CHOICES, run
from graphhom.cube import build_complex
from graphhom.invariants import eval_del_con, g_polynomials, specialization, yamada_state_sum
from graphhom.laurent import X, BivariateLaurent
from graphhom.multigraph import bouquet_graph, build, to_json_dict
from graphhom.verify import CHECK_NAMES, CheckReport


@pytest.fixture
def bigon_path(tmp_path):
    path = tmp_path / "bigon.json"
    path.write_text(json.dumps({"vertices": 2, "edges": [[0, 1], [0, 1]]}))
    return str(path)


@pytest.fixture
def triangle_path(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}))
    return str(path)


def test_poly_yamada_human(bigon_path, capsys):
    assert run(["poly", "--which", "yamada", "--input", bigon_path]) == 0
    assert capsys.readouterr().out == "x*y - 1\n"


def test_poly_g_uses_tw_names(bigon_path, capsys):
    assert run(["poly", "--which", "g", "--input", bigon_path]) == 0
    out = capsys.readouterr().out
    assert out == "t^3*w + t^3 + 3*t^2*w + 2*t^2 + 3*t*w + t + w\n"


def test_poly_tutte(bigon_path, capsys):
    assert run(["poly", "--which", "tutte", "--input", bigon_path]) == 0
    assert capsys.readouterr().out == "x + y\n"


def test_poly_json_round_trips(bigon_path, capsys):
    assert run(["poly", "--which", "yamada", "--input", bigon_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data == {
        "terms": [{"x": 1, "y": 1, "c": "1"}, {"x": 0, "y": 0, "c": "-1"}]
    }


def test_poly_negami_t_guard(bigon_path, capsys):
    assert run(["poly", "--which", "negami", "--input", bigon_path]) == 0
    capsys.readouterr()
    assert run(["poly", "--which", "negami", "--negami-t", "2", "--input", bigon_path]) == 1
    assert "negami" in capsys.readouterr().err


# The 12-edge loopless multigraph of the poly golden digests, on 6 vertices.
MULTI12_EDGES = [[0, 1], [1, 2], [2, 3], [3, 4], [4, 5], [5, 0],
                 [0, 1], [2, 3], [4, 5], [0, 3], [1, 4], [2, 5]]


def _poly(which, vertices, edges, tmp_path, capsys):
    path = tmp_path / f"graph{vertices}.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": edges}))
    assert run(["poly", "--which", which, "--input", str(path), "--json"]) == 0
    return BivariateLaurent.from_json_dict(json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("which,extra", [("yamada", 100_000), ("chromatic", 100_000), ("g", 40)])
def test_poly_isolated_vertices_cost_nothing(which, extra, tmp_path, capsys):
    """Isolated vertices multiply h and the chromatic polynomial by x^k and g by
    (1+t)^k. The endpoints are spread over the labels so the extra vertices fall
    between them. g(G + k points) has terms t^i for every i up to k + |V(G)|, with
    coefficients up to C(k, k/2), so its row uses a small k: the size of the
    answer grows with k, not the cost of the state sum."""
    step = 1 + extra // 5
    spread = [[step * u, step * v] for u, v in MULTI12_EDGES]
    small = _poly(which, 6, MULTI12_EDGES, tmp_path, capsys)
    large = _poly(which, 6 + extra, spread, tmp_path, capsys)
    factor = (X + 1) ** extra if which == "g" else X ** extra
    assert large == factor * small


def test_poly_g_refuses_large_x_degree_at_once(tmp_path, capsys):
    # a triangle plus a loop among 16,000 vertices: g~ has x-degree 4 + 15,998, and
    # shifting it would expand thousands of terms with thousands-of-bits binomials
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"vertices": 16_000, "edges": [[0, 1], [1, 2], [0, 2], [0, 0]]}))
    assert run(["poly", "--which", "g", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "g~ has x-degree 16002, over the limit of 1024" in captured.err


def test_cohomology_human(bigon_path, capsys):
    assert run(["cohomology", "--variant", "yamada", "--input", bigon_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "variant: yamada"
    assert "H^0 (1,0): free rank 1" in out
    assert "H^2 (1,1): free rank 3" in out
    assert out[-1].startswith("euler: ")


def test_cohomology_json_matches_golden(bigon_path, capsys):
    assert run(["cohomology", "--variant", "tutte", "--input", bigon_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["variant"] == "tutte"
    assert data["groups"][0]["summands"] == [
        {"bidegree": [1, 0], "free_rank": 1, "torsion": []},
        {"bidegree": [2, 0], "free_rank": 1, "torsion": []},
    ]
    assert data["groups"][1]["summands"] == []
    assert data["groups"][2]["summands"] == [
        {"bidegree": [0, 1], "free_rank": 1, "torsion": []},
        {"bidegree": [1, 1], "free_rank": 1, "torsion": []},
    ]


def test_check_all_five_pass_reports(bigon_path, capsys):
    assert run(["check", "--all", "--input", bigon_path]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert len(reports) == 5
    assert [r["name"] for r in reports] == [
        "deletion_contraction",
        "euler",
        "permutation_invariance",
        "projection",
        "retraction",
    ]
    assert all(r["passed"] for r in reports)


def test_check_only_selection(triangle_path, capsys):
    assert run(["check", "--only", "euler,retraction", "--input", triangle_path]) == 0
    reports = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in reports] == ["euler", "retraction"]
    capsys.readouterr()
    assert run(["check", "--only", "bogus", "--input", triangle_path]) == 1
    assert "unknown checks: bogus" in capsys.readouterr().err
    for empty in (",", ""):
        assert run(["check", "--only", empty, "--input", triangle_path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no checks named" in captured.err


def test_check_failure_exit_code(bigon_path, capsys, monkeypatch):
    monkeypatch.setattr(
        graphhom.verify,
        "check_euler",
        lambda G, complex_of, table_of: CheckReport("euler", False, "synthetic failure"),
        raising=True,
    )
    assert run(["check", "--only", "euler", "--input", bigon_path]) == 2
    reports = json.loads(capsys.readouterr().out)
    assert reports == [{"name": "euler", "passed": False, "witness": "synthetic failure"}]


def test_dump_schema(bigon_path, capsys):
    assert run(["dump", "--input", bigon_path, "--variant", "yamada"]) == 0
    blocks = json.loads(capsys.readouterr().out)
    assert all(set(b) == {"i", "bidegree", "rows", "cols", "entries"} for b in blocks)
    heights = sorted({b["i"] for b in blocks})
    assert heights == [0, 1]
    zero_zero = next(b for b in blocks if b["i"] == 0 and b["bidegree"] == [0, 0])
    assert zero_zero["rows"] == 2 and zero_zero["cols"] == 1
    assert zero_zero["entries"] == [[0, 0, 1], [1, 0, 1]]
    entries = [tuple(map(tuple, b["entries"])) for b in blocks]
    assert all(list(e) == sorted(e) for e in entries)


def test_dump_height_filter(bigon_path, capsys):
    assert run(["dump", "--input", bigon_path, "--variant", "yamada", "--height", "1"]) == 0
    blocks = json.loads(capsys.readouterr().out)
    assert blocks and all(b["i"] == 1 for b in blocks)
    capsys.readouterr()
    assert run(["dump", "--input", bigon_path, "--variant", "yamada", "--height", "9"]) == 1


def test_dump_height_checked_before_building(bigon_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("an out-of-range height must not build the complex")

    monkeypatch.setattr(graphhom.cli, "build_complex", never)
    for height in ("2", "-1"):
        assert run(["dump", "--input", bigon_path, "--variant", "yamada", "--height", height]) == 1
        assert "out of range" in capsys.readouterr().err


# wheel8 with a doubled spoke has 17 edges on 9 vertices, the vertex count
# with the least tutte floor at 17 edges
_WHEEL8_WITH_A_DOUBLED_SPOKE = (
    [[i, i % 8 + 1] for i in range(1, 9)] + [[0, i] for i in range(1, 9)] + [[0, 1]]
)
_WHEEL8 = {"vertices": 9, "edges": _WHEEL8_WITH_A_DOUBLED_SPOKE[:-1]}


def test_oversized_complex_is_exit_1(tmp_path, monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("an oversized complex must be refused before any state is labelled")

    monkeypatch.setattr(graphhom.cube, "state_components", never)
    cases = [
        ({"vertices": 64, "edges": []}, "yamada", 2**64),
        ({"vertices": 1, "edges": [[0, 0]] * 12}, "yamada", 2 * 5**12),
        ({"vertices": 9, "edges": _WHEEL8_WITH_A_DOUBLED_SPOKE}, "tutte", 1399140),
        ({"vertices": 9, "edges": _WHEEL8_WITH_A_DOUBLED_SPOKE}, "yamada", 5978632192),
    ]
    for n, (data, variant, rank) in enumerate(cases):
        path = tmp_path / f"oversized{n}.json"
        path.write_text(json.dumps(data))
        for command in ("cohomology", "dump"):
            assert run([command, "--variant", variant, "--input", str(path)]) == 1
            assert capsys.readouterr() == (
                "", f"error: chain complex has rank at least {rank}, over the limit of 1048576\n"
            )


# `cohomology --variant yamada` refuses these exactly as `build_complex`
# refuses the whole yamada complex: the first three by the lower bound, the
# last, whose bound passes, by the exact rank.
YAMADA_REFUSALS = {
    "cycle10": (
        {"vertices": 10, "edges": [[i, (i + 1) % 10] for i in range(10)]},
        "rank at least 1051648",
    ),
    "K5": (
        {"vertices": 5, "edges": [[u, v] for u in range(5) for v in range(u + 1, 5)]},
        "rank at least 1225280",
    ),
    "bouquet12": ({"vertices": 1, "edges": [[0, 0]] * 12}, "rank at least 488281250"),
    "triangle_with_a_sevenfold_edge": (
        {"vertices": 3, "edges": [[0, 2], [1, 2]] + [[0, 1]] * 7},
        "rank 1093768",
    ),
}


def _never_build(*args, **kwargs):
    raise AssertionError("the command must not build this complex")


@pytest.mark.parametrize("name", sorted(YAMADA_REFUSALS))
def test_yamada_cohomology_refuses_before_building_any_minor(name, tmp_path, monkeypatch, capsys):
    data, rank = YAMADA_REFUSALS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(graphhom.homology, "_build", _never_build)
    monkeypatch.setattr(graphhom.cli, "build_complex", _never_build)
    for extra in ([], ["--json"]):
        assert run(["cohomology", "--variant", "yamada", "--input", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: chain complex has {rank}, over the limit of 1048576\n"


# `cohomology --variant tutte` refuses these exactly as `build_complex`
# refuses the whole tutte complex, all by the lower bound: the tutte case of
# `test_oversized_complex_is_exit_1` and a bouquet of 13 loops, 2 * 3^13.
TUTTE_REFUSALS = {
    "wheel8_with_a_doubled_spoke": (
        {"vertices": 9, "edges": _WHEEL8_WITH_A_DOUBLED_SPOKE},
        "rank at least 1399140",
    ),
    "bouquet13": ({"vertices": 1, "edges": [[0, 0]] * 13}, "rank at least 3188646"),
}


@pytest.mark.parametrize("name", sorted(TUTTE_REFUSALS))
def test_tutte_cohomology_refuses_before_building_anything(name, tmp_path, monkeypatch, capsys):
    data, rank = TUTTE_REFUSALS[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    monkeypatch.setattr(graphhom.homology, "_build", _never_build)
    monkeypatch.setattr(graphhom.cli, "build_complex", _never_build)
    monkeypatch.setattr(graphhom.cube, "state_histogram", _never_build)
    monkeypatch.setattr(graphhom.cube, "state_components", _never_build)
    for extra in ([], ["--json"]):
        assert run(["cohomology", "--variant", "tutte", "--input", str(path), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: chain complex has {rank}, over the limit of 1048576\n"


def test_tutte_cohomology_refuses_by_the_exact_rank_with_no_state_pass(
    tmp_path, monkeypatch, capsys
):
    # wheel8 (16 edges, 9 vertices) passes the floor; its exact rank comes from
    # the state histograms, and no state is labelled nor any complex built.
    path = tmp_path / "wheel8.json"
    path.write_text(json.dumps(_WHEEL8))
    monkeypatch.setattr(graphhom.homology, "_build", _never_build)
    monkeypatch.setattr(graphhom.cli, "build_complex", _never_build)
    for module in (graphhom.cube, graphhom.multigraph):
        monkeypatch.setattr(module, "state_components", _never_build)
    monkeypatch.setattr(graphhom.homology, "cyclic_state_components", _never_build)
    for extra in ([], ["--json"]):
        assert run(["cohomology", "--variant", "tutte", "--input", str(path), *extra]) == 1
        assert capsys.readouterr() == (
            "", "error: chain complex has rank 1250562, over the limit of 1048576\n"
        )


def _command_refusals():
    """(name, (graph, command, refused rank)) of every complex command on
    the refusal tables: the cohomology route and `dump` of the variant,
    and `check` where the first complex it asks for is refused (the tutte
    one for the retraction, the yamada one for the euler check of
    `--all`)."""
    tutte = {**TUTTE_REFUSALS, "wheel8": (_WHEEL8, "rank 1250562")}
    for variant, table in (("yamada", YAMADA_REFUSALS), ("tutte", tutte)):
        for name, (data, rank) in table.items():
            for command in ("cohomology", "dump"):
                yield f"{command}-{variant}-{name}", (data, [command, "--variant", variant], rank)
    yield "check-retraction-wheel8", (
        _WHEEL8,
        ["check", "--only", "retraction", "--max-edges", "16"],
        "rank 1250562",
    )
    yield "check-all-triangle_with_a_sevenfold_edge", (
        YAMADA_REFUSALS["triangle_with_a_sevenfold_edge"][0],
        ["check", "--all"],
        "rank 1093768",
    )


COMMAND_REFUSALS = dict(_command_refusals())


@pytest.mark.parametrize("name", sorted(COMMAND_REFUSALS))
def test_every_complex_command_refuses_alike_before_any_state_is_labelled(
    name, tmp_path, monkeypatch, capsys
):
    # One refusal serves every route to a complex, by the floor or by the
    # exact rank read off the state histograms, so no command labels a state
    # of a complex it refuses.
    data, argv, rank = COMMAND_REFUSALS[name]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    for module in (graphhom.cube, graphhom.homology, graphhom.multigraph):
        monkeypatch.setattr(module, "state_components", _never_build)
    monkeypatch.setattr(graphhom.homology, "cyclic_state_components", _never_build)
    assert run([*argv, "--input", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"error: chain complex has {rank}, over the limit of 1048576\n"
    )


def test_cohomology_yamada_builds_only_tutte_minors(bigon_path, monkeypatch, capsys):
    minors = []
    real = graphhom.homology.tutte_cohomology

    def recording_tutte_cohomology(G):
        minors.append((G.vertex_count, G.edges))
        return real(G)

    monkeypatch.setattr(graphhom.homology, "tutte_cohomology", recording_tutte_cohomology)
    monkeypatch.setattr(graphhom.cli, "build_complex", _never_build)
    assert run(["cohomology", "--variant", "yamada", "--input", bigon_path]) == 0
    assert "H^0 (1,0): free rank 1" in capsys.readouterr().out
    # the bigon itself, the loop left by contracting either edge, the point
    assert minors == [(2, ((0, 1), (0, 1))), (1, ((0, 0),)), (1, ())]


@pytest.mark.parametrize("vertices", [10**6, 10**12])
def test_huge_vertex_count_is_exit_1(vertices, tmp_path, capsys):
    # the bound is stated as a power of two instead of an integer of V bits
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vertices": vertices, "edges": [[0, 1]]}))
    for argv in (
        ["cohomology", "--variant", "yamada"],
        ["dump", "--variant", "tutte"],
        ["check", "--all"],
    ):
        assert run(argv + ["--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"rank at least 2^{vertices}," in captured.err


def test_missing_file_is_exit_1(capsys):
    assert run(["poly", "--which", "yamada", "--input", "/nonexistent.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bad_json_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run(["poly", "--which", "yamada", "--input", str(path)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_invalid_graph_is_exit_1(tmp_path, capsys):
    path = tmp_path / "bad_graph.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [[0, 3]]}))
    assert run(["poly", "--which", "yamada", "--input", str(path)]) == 1
    assert "error:" in capsys.readouterr().err


def test_max_edges_guard(tmp_path, capsys):
    # `poly` and `check` refuse by edge count; the complex commands by chain rank
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [[0, 0]] * 13}))
    limit = f"error: {path}: graph has 13 edges, over the --max-edges limit of 12\n"
    for argv in (["poly", "--which", "yamada"], ["check", "--all"]):
        assert run([*argv, "--input", str(path)]) == 1
        assert capsys.readouterr() == ("", limit)
    assert run(["cohomology", "--variant", "yamada", "--input", str(path)]) == 1
    assert "rank at least" in capsys.readouterr().err
    assert run(["cohomology", "--variant", "tutte", "--input", str(path)]) == 1
    assert capsys.readouterr() == (
        "", "error: chain complex has rank at least 3188646, over the limit of 1048576\n"
    )


def test_a_negative_max_edges_is_refused_at_parse_time(tmp_path, capsys):
    # before the input is read: the file does not exist
    path = tmp_path / "empty.json"
    refusal = "error: argument --max-edges: must be at least 0, got -1\n"
    for argv in (["poly", "--which", "yamada"], ["check", "--all"]):
        assert run([*argv, "--max-edges", "-1", "--input", str(path)]) == 1
        assert capsys.readouterr() == ("", refusal)
    # a limit of 0 still answers the empty graph
    path.write_text(json.dumps({"vertices": 0, "edges": []}))
    for argv in (["poly", "--which", "yamada"], ["check", "--all"]):
        assert run([*argv, "--max-edges", "0", "--input", str(path)]) == 0
    capsys.readouterr()


def test_dump_answers_a_13_edge_complex_under_the_rank_limit(tmp_path, capsys):
    # wheel6 with a doubled spoke: 7 vertices, tutte chain rank 113,676
    edges = [[i, i % 6 + 1] for i in range(1, 7)] + [[0, i] for i in range(1, 7)] + [[0, 1]]
    path = tmp_path / "wheel6_doubled_spoke.json"
    path.write_text(json.dumps({"vertices": 7, "edges": edges}))
    assert run(["dump", "--variant", "tutte", "--height", "0", "--input", str(path)]) == 0
    cx = build_complex(build(7, edges), "tutte")
    assert capsys.readouterr() == (_dump_oracle(cx, 0), "")


def _dump_oracle(cx, height=None):
    """What `dump` printed when it went through `json.dumps(..., indent=2)`: per
    height (all, or only `height`), one object per bidegree in order, with the
    entries sorted by (row, col)."""
    blocks = [
        {
            "i": i,
            "bidegree": [j, k],
            "rows": block.rows,
            "cols": block.cols,
            "entries": [[r, c, v] for r, c, v in block.sorted_entries()],
        }
        for i, level in enumerate(cx.blocks)
        if height in (None, i)
        for (j, k), block in sorted(level.items())
    ]
    return json.dumps(blocks, indent=2) + "\n"


def test_dump_writer_matches_json_dumps_on_the_corpus(corpus, complex_of, tmp_path, capsys):
    # every height and no --height, both variants; the corpus holds 0-edge graphs
    # and blocks with no rows or no columns
    shapeless = 0
    for t, G in enumerate(corpus):
        path = tmp_path / f"graph{t}.json"
        path.write_text(json.dumps(to_json_dict(G)))
        for variant in ("yamada", "tutte"):
            cx = complex_of(G, variant)
            for height in (None, *range(max(G.edge_count, 1))):
                argv = ["dump", "--variant", variant, "--input", str(path)]
                assert run(argv + ([] if height is None else ["--height", str(height)])) == 0
                assert capsys.readouterr() == (_dump_oracle(cx, height), ""), (G, variant, height)
            shapeless += sum(not (b.rows and b.cols) for level in cx.blocks for b in level.values())
    assert shapeless


def _poly_oracle(G, which):
    """What `poly --json` printed when it went through `json.dumps(..., indent=2)`."""
    if which == "yamada":
        poly = yamada_state_sum(G)
    elif which == "g":
        poly = g_polynomials(G)[1]
    else:
        poly = eval_del_con(G, specialization(which))
    return json.dumps(poly.to_json_dict(), indent=2) + "\n"


def test_poly_writer_matches_json_dumps_on_the_corpus(corpus, tmp_path, capsys):
    # the corpus holds zero polynomials (chromatic of a graph with a loop) and
    # negative exponents; g of 48 loops at one vertex has coefficients over 2^64
    zero = negative = wide = False
    for t, G in enumerate([*corpus, bouquet_graph(48)]):
        path = tmp_path / f"graph{t}.json"
        path.write_text(json.dumps(to_json_dict(G)))
        for which in POLY_CHOICES:
            argv = ["poly", "--which", which, "--json", "--max-edges", "48", "--input", str(path)]
            assert run(argv) == 0
            assert capsys.readouterr() == (out := _poly_oracle(G, which), ""), (G, which)
            terms = json.loads(out)["terms"]
            zero |= not terms
            negative |= any(term["x"] < 0 or term["y"] < 0 for term in terms)
            wide |= any(abs(int(term["c"])) >= 2**64 for term in terms)
    assert zero and negative and wide


def test_dump_of_a_graph_without_edges_is_an_empty_list(tmp_path, capsys):
    path = tmp_path / "two_points.json"
    path.write_text(json.dumps({"vertices": 2, "edges": []}))
    for height in ([], ["--height", "0"]):
        assert run(["dump", "--variant", "yamada", "--input", str(path), *height]) == 0
        assert capsys.readouterr() == (json.dumps([], indent=2) + "\n", "") == ("[]\n", "")


def test_dump_writes_blocks_without_rows_or_columns(tmp_path, capsys):
    # one loop, tutte: C^1 has cycle slots that C^0 lacks, so the blocks of
    # bidegrees (0, 1) and (1, 1) are 1 x 0
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [[0, 0]]}))
    assert run(["dump", "--variant", "tutte", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == _dump_oracle(build_complex(build(1, [(0, 0)]), "tutte"))
    assert out.count('"rows": 1,\n    "cols": 0,\n    "entries": []\n  }') == 2


def test_unknown_flag_is_exit_1(bigon_path, capsys):
    assert run(["poly", "--what", "yamada", "--input", bigon_path]) == 1
    assert "error:" in capsys.readouterr().err
    # the complex commands are bounded by chain rank alone
    for command in ("cohomology", "dump"):
        assert run([command, "--variant", "tutte", "--input", bigon_path, "--max-edges", "5"]) == 1
        assert "unrecognized arguments: --max-edges 5" in capsys.readouterr().err


def test_byte_identical_reruns(bigon_path, capsys):
    run(["cohomology", "--variant", "yamada", "--input", bigon_path, "--json"])
    first = capsys.readouterr().out
    run(["cohomology", "--variant", "yamada", "--input", bigon_path, "--json"])
    assert capsys.readouterr().out == first


def test_parser_reuse_matches_fresh_parsers(bigon_path, capsys):
    argvs = [
        ["poly", "--which", "yamada", "--input", bigon_path],
        ["poly", "--what", "yamada", "--input", bigon_path],
        ["dump", "--input", bigon_path, "--variant", "tutte", "--height", "1"],
    ]
    shared = []
    for argv in argvs:
        code = run(argv)
        shared.append((code, *capsys.readouterr()))
    assert graphhom.cli._build_parser() is graphhom.cli._build_parser()
    fresh = []
    for argv in argvs:
        graphhom.cli._build_parser.cache_clear()
        code = run(argv)
        fresh.append((code, *capsys.readouterr()))
    assert [code for code, _, _ in shared] == [0, 1, 0]
    assert shared == fresh


def test_python_dash_m_runs_the_cli(bigon_path, capsys):
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))

    def module(*argv):
        command = [sys.executable, "-m", "graphhom", *argv]
        return subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)

    argv = ["poly", "--which", "yamada", "--input", bigon_path]
    proc = module(*argv)
    assert run(argv) == 0
    assert (proc.returncode, proc.stdout) == (0, capsys.readouterr().out)
    proc = module("poly")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")


# Graph JSON for the CLI fuzz test: objects with at most 4 edges whose fields may
# be missing, of the wrong type, negative, out of range or huge, other JSON values,
# malformed text, arrays nested past the parser's recursion limit, and an integer
# too long to read. `poly` and `check` keep the default `--max-edges`, which these
# small graphs never reach; `cohomology` and `dump` are bounded by chain rank alone.
_ENDPOINT = st.one_of(st.integers(-2, 6), st.just(10**6), st.booleans(), st.floats(), st.none())
_EDGE = st.one_of(st.lists(_ENDPOINT, max_size=3), _ENDPOINT)
_GRAPH = st.fixed_dictionaries(
    {},
    optional={
        "vertices": st.one_of(
            st.integers(-3, 6), st.sampled_from([10**3, 10**6]), st.booleans(), st.floats(),
            st.text(max_size=2), st.none(),
        ),
        "edges": st.one_of(st.lists(_EDGE, max_size=4), st.integers(), st.text(max_size=2)),
    },
)
_DOCUMENT = st.one_of(
    _GRAPH.map(json.dumps),
    st.one_of(st.lists(st.integers(), max_size=3), st.integers(), st.none()).map(json.dumps),
    st.text(alphabet='{}[]:,"-.0123456789aedgrstv ', max_size=30),
    st.sampled_from([1, 10**4]).map(lambda n: "[" * n + "]" * n),
    st.just('{"vertices": ' + "9" * 5000 + ', "edges": []}'),
)
_INT_FLAG = st.one_of(st.integers(-3, 5), st.sampled_from([10**30, -(10**30)])).map(str)
_TRIANGLE_LOOP = [[0, 1], [1, 2], [0, 2], [0, 0]]


@settings(max_examples=40, deadline=None)
@example("[" * 10**4 + "]" * 10**4, "g", "1", "yamada", None, None)
@example(json.dumps({"vertices": 10**6, "edges": _TRIANGLE_LOOP}), "g", "0", "tutte", None, "-1")
@example(json.dumps({"vertices": 4, "edges": _TRIANGLE_LOOP}), "negami", "-3", "yamada", [], "4")
@example(json.dumps({"vertices": 3, "edges": [[0, 3]]}), "negami", str(10**30), "tutte", [""], None)
@given(
    document=_DOCUMENT,
    which=st.sampled_from(POLY_CHOICES),
    negami_t=st.one_of(_INT_FLAG, st.just("x")),
    variant=st.sampled_from(("yamada", "tutte")),
    only=st.one_of(
        st.none(), st.lists(st.sampled_from(CHECK_NAMES + ("bogus", "")), max_size=3)
    ),
    height=st.one_of(st.none(), _INT_FLAG),
)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, document, which, negami_t, variant, only, height):
    """Every subcommand on malformed or extreme input exits 0, 1 or 2, and no
    exception escapes; on exit 1 only an error message is printed, on stderr."""
    path = tmp_path_factory.getbasetemp() / "fuzz-graph.json"
    path.write_text(document, encoding="utf-8")
    check = ["--all"] if only is None else ["--only", ",".join(only)]
    argvs = [
        ["poly", "--which", which, "--negami-t", negami_t],
        ["cohomology", "--variant", variant],
        ["check", *check],
        ["dump", "--variant", variant, *([] if height is None else ["--height", height])],
    ]
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([*argv, "--input", str(path)])
        assert code in (0, 1, 2), (argv, code)
        if code == 1:
            assert out.getvalue() == "", argv
            assert err.getvalue().startswith("error: "), (argv, err.getvalue())
        else:
            assert err.getvalue() == "", (argv, err.getvalue())
