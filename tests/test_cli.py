import json

import pytest

import graphhom.cli
from graphhom.cli import run
from graphhom.verify import CheckReport


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


def test_check_failure_exit_code(bigon_path, capsys, monkeypatch):
    monkeypatch.setattr(
        graphhom.cli,
        "check_euler",
        lambda G, max_edges=12: CheckReport("euler", False, "synthetic failure"),
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


def test_oversized_complex_is_exit_1(tmp_path, capsys):
    isolated = tmp_path / "isolated.json"
    isolated.write_text(json.dumps({"vertices": 64, "edges": []}))
    bouquet = tmp_path / "bouquet12.json"
    bouquet.write_text(json.dumps({"vertices": 1, "edges": [[0, 0]] * 12}))
    for path, rank in ((isolated, 2**64), (bouquet, 2 * 5**12)):
        for command in ("cohomology", "dump"):
            assert run([command, "--variant", "yamada", "--input", str(path)]) == 1
            err = capsys.readouterr().err
            assert f"rank {rank}," in err


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
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"vertices": 1, "edges": [[0, 0]] * 13}))
    assert run(["poly", "--which", "yamada", "--input", str(path)]) == 1
    err = capsys.readouterr().err
    assert "max-edges" in err
    assert run(["cohomology", "--variant", "yamada", "--input", str(path)]) == 1


def test_unknown_flag_is_exit_1(bigon_path, capsys):
    assert run(["poly", "--what", "yamada", "--input", bigon_path]) == 1
    assert "error:" in capsys.readouterr().err


def test_byte_identical_reruns(bigon_path, capsys):
    run(["cohomology", "--variant", "yamada", "--input", bigon_path, "--json"])
    first = capsys.readouterr().out
    run(["cohomology", "--variant", "yamada", "--input", bigon_path, "--json"])
    assert capsys.readouterr().out == first
