"""Regression guards for the complex builder.

The sha256 digests pin the exact bytes that `dump` and `cohomology --json`
print, and the cohomology tables of the whole corpus, so any change to basis
order, signs, block layout or cohomology (torsion included) shows up here.
The corruption tests prove that `build_complex` still runs both of its
run-time verifications (bidegree preservation and d^2 = 0).
"""

import hashlib
import json
from pathlib import Path

import pytest

import graphhom.cube as cube
from graphhom.cli import run
from graphhom.multigraph import bigon, cycle_graph, to_json_dict

GRAPHS = Path(__file__).resolve().parents[1] / "graphs"

# A loop, a parallel pair, a merge with a bystander component and an isolated vertex.
MIXED = {"vertices": 5, "edges": [[0, 1], [1, 2], [2, 0], [2, 2], [1, 2]]}
K4 = {"vertices": 4, "edges": [[u, v] for u in range(4) for v in range(u + 1, 4)]}

DIGESTS = {
    ("bigon", "dump", "yamada"): "d83ddc9ed9b501c50f5b0f3f89e308c24c7fa1a465beeb94c0b649c375c8487d",
    ("bigon", "dump", "tutte"): "31219c66e3bf66601782d82ede64bf329e7fbceb8906452baeeb9abd059045d7",
    ("bigon", "cohomology", "yamada"): "4d55dc227f295eb3703eeaab99661e7e4032f95fd90b3365267f6a37c6cba6a0",
    ("bigon", "cohomology", "tutte"): "2558a7a65e6c53b11e53d0a00c5c9936659c45fc1a3d8ab4e193235dc7f8ecd2",
    ("triangle", "dump", "yamada"): "fac5cc55aa581c7123e75fa8fbe9cfed660c4dc6eee29ed8f099599a14b59765",
    ("triangle", "dump", "tutte"): "1629a2d01093c6ece0637bd318b4134fd2e1d772733edb486b1f0a159bc47b43",
    ("triangle", "cohomology", "yamada"): "6efb5b63f90b9f0503f42cbd511941c3b18d69b179ef910e780f586ce81bc6ad",
    ("triangle", "cohomology", "tutte"): "d6f86f083b142d41d62e796a5c7083f208b472d6a692a0f01d2f1edd57b2ef94",
    ("cycle5", "dump", "yamada"): "1c73b9f6b46c0638e6862168a1e989ad4590604a25125cfd16211f97851b7b33",
    ("cycle5", "dump", "tutte"): "1af11cf96fbfd00a7b62de40b509884c59d489fa3f02a3b0c1efe5bf46eff0d6",
    ("cycle5", "cohomology", "yamada"): "5c6834cbb9bf9f45f5ddac4950735901ca05e603ba2010f2ffe3b6486d597c7f",
    ("cycle5", "cohomology", "tutte"): "0aea8cc537fa372fc4ac6f6f384a5e4ddde1e54e668d1892cd621ddee785a4d4",
    ("mixed", "dump", "yamada"): "4737d16442e14e72cee208789936366d2f2992e784f424d7d51d0c25c1ba74a6",
    ("mixed", "dump", "tutte"): "3fb0c8299b54ddc5a09fb63cff318e0b91638f625dc7b4b4b9a4858688b24667",
    ("mixed", "cohomology", "yamada"): "7394632c8a26cb89422cec334e52660c9491ae5b653bb6608b02fda3d04b9c23",
    ("mixed", "cohomology", "tutte"): "87baad9f7eadae9720184a9b19be91bfae88c80487c9f249192394cd8d57e957",
    ("K4", "cohomology", "yamada"): "74e85f3ceefe21c8c771fd9c9b4d0d5c6e767ed0d562cf1e38c69c66a3968143",
    ("cycle6", "cohomology", "yamada"): "8b4712cb4564502cffa8a05aad1dfa29b2a5a75365211e1df8376f31e31f4820",
}

# sha256 over the JSON tables of every corpus graph, yamada then tutte per graph:
# pins the corpus torsion (thirty Z/2 factors), which Euler characteristics cannot see.
CORPUS_TABLES_DIGEST = "415357bade4b1bde10106dae4ab913e0c405ea27f15be3cf2c259060510c1058"


def _graph_path(name, tmp_path):
    if name in ("bigon", "triangle"):
        return str(GRAPHS / f"{name}.json")
    data = {
        "cycle5": to_json_dict(cycle_graph(5)),
        "cycle6": to_json_dict(cycle_graph(6)),
        "K4": K4,
        "mixed": MIXED,
    }[name]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize("name,command,variant", sorted(DIGESTS))
def test_output_digest(name, command, variant, tmp_path, capsys):
    argv = [command, "--variant", variant, "--input", _graph_path(name, tmp_path)]
    if command == "cohomology":
        argv.append("--json")
    assert run(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[(name, command, variant)]


def test_corpus_tables_digest(corpus, table_of):
    digest = hashlib.sha256()
    for G in corpus:
        for variant in ("yamada", "tutte"):
            table = table_of(G, variant)
            digest.update(json.dumps(table.to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == CORPUS_TABLES_DIGEST


def _corrupt_first_edge_map(monkeypatch, add=None, drop=None):
    """Add the entry `add` to, or drop the entry `drop` from, the first
    per-edge map that `build_complex` asks for (the bigon's S = {}, e = 0)."""
    original = cube._edge_rule
    seen = []

    def corrupted(*args, **kwargs):
        pairs = original(*args, **kwargs)
        if seen:
            return pairs
        seen.append(True)
        entries = {(r, c) for c, r in pairs}
        if add is not None:
            entries.add(add)
        if drop is not None:
            entries.remove(drop)
        return [(c, r) for r, c in sorted(entries)]

    monkeypatch.setattr(cube, "_edge_rule", corrupted)
    return seen


def test_corrupted_map_breaking_bidegree_is_caught(monkeypatch):
    # target 1 carries a generator in the new edge slot: bidegree (1, 0), source 0 has (0, 0)
    seen = _corrupt_first_edge_map(monkeypatch, add=(1, 0))
    with pytest.raises(RuntimeError, match="bidegree"):
        cube.build_complex(bigon(), "yamada")
    assert seen


def test_corrupted_map_breaking_d_squared_is_caught(monkeypatch):
    # dropping 1 (x) 1 -> 1 keeps every bidegree but the square through {0} stops commuting
    seen = _corrupt_first_edge_map(monkeypatch, drop=(0, 0))
    with pytest.raises(RuntimeError, match="d\\^2"):
        cube.build_complex(bigon(), "yamada")
    assert seen
