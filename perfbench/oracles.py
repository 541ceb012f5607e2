"""Output checks for the benchmark that do not rest on the code under test.

Everything here is recomputed from the graph alone, with this file's own
union-find and subset expansions:

- cohomology: the table must equal the committed reference table for the
  canonical edge order (so every seeded edge order must give the same
  table), and its alternating sum of free ranks must equal the chain-level
  Euler characteristic sum over S of (-1)^|S| (1+t)^(lam+b0) (1+w)^b1,
  which for the yamada variant is g(G; t, w);
- dump: block shapes must equal the chain dimensions prod (1+t)^(lam+b0)
  (1+w)^b1 summed per state, and the height-0 entries must be the unsigned
  unit maps (all 1, one per basis element that survives the product);
- check: every report must say passed;
- poly: each polynomial must equal its subset expansion over all states,
  T(1,1) must equal the Kirchhoff spanning-forest count, and chromatic
  values must equal a brute-force count of proper colorings where the
  graph has at most 8 vertices.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from fractions import Fraction
from math import comb
from pathlib import Path

from workloads import Command, Edge

Poly = dict[tuple[int, int], int]

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
CHECK_NAMES = (
    "deletion_contraction",
    "euler",
    "permutation_invariance",
    "projection",
    "retraction",
)
_H_LINE = re.compile(r"H\^(\d+) \((-?\d+),(-?\d+)\): free rank (\d+)(?:, torsion \[[\d, ]*\])?")


def betti(vertices: int, edges: tuple[Edge, ...], mask: int) -> tuple[int, int]:
    """(b0, b1) of the spanning subgraph on the edges in `mask`."""
    parent = list(range(vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    b0 = vertices
    size = 0
    for e, (u, v) in enumerate(edges):
        if mask >> e & 1:
            size += 1
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[rv] = ru
                b0 -= 1
    return b0, size - vertices + b0


def state_histogram(vertices: int, edges: tuple[Edge, ...]) -> Counter:
    """Multiplicity of each (|S|, b0, b1) over all edge subsets S."""
    return Counter(
        (mask.bit_count(), *betti(vertices, edges, mask)) for mask in range(1 << len(edges))
    )


def _binomial_terms(n: int, shift: int) -> list[tuple[int, int]]:
    """(exponent, coefficient) pairs of (z + shift)^n."""
    return [(i, comb(n, i) * shift ** (n - i)) for i in range(n + 1)]


def _accumulate(out: Poly, key: tuple[int, int], c: int) -> None:
    out[key] = out.get(key, 0) + c
    if not out[key]:
        del out[key]


def chain_dims(vertices: int, edges: tuple[Edge, ...], variant: str) -> list[Poly]:
    """Graded rank of each chain group C^i, as {(j, k): dim}."""
    dims: list[Poly] = [{} for _ in range(len(edges) + 1)]
    for mask in range(1 << len(edges)):
        size = mask.bit_count()
        b0, b1 = betti(vertices, edges, mask)
        lam = size if variant == "yamada" else 0
        for j, cj in _binomial_terms(lam + b0, 1):
            for k, ck in _binomial_terms(b1, 1):
                _accumulate(dims[size], (j, k), cj * ck)
    return dims


def chain_euler(dims: list[Poly]) -> Poly:
    out: Poly = {}
    for i, dim in enumerate(dims):
        for jk, d in dim.items():
            _accumulate(out, jk, -d if i % 2 else d)
    return out


def expected_polynomials(vertices: int, edges: tuple[Edge, ...]) -> dict[str, Poly]:
    """All six `poly --which` values from the subset expansions."""
    n = len(edges)
    hist = state_histogram(vertices, edges)
    k_full = betti(vertices, edges, (1 << n) - 1)[0]
    out: dict[str, Poly] = {w: {} for w in ("yamada", "g", "tutte", "chromatic", "flow", "negami")}
    for (size, b0, b1), mult in hist.items():
        sign = -1 if size % 2 else 1
        _accumulate(out["yamada"], (size - n + b0, b1), (-1 if (n - size) % 2 else 1) * mult)
        for i, ci in _binomial_terms(size + b0, 1):
            for j, cj in _binomial_terms(b1, 1):
                _accumulate(out["g"], (i, j), sign * mult * ci * cj)
        for i, ci in _binomial_terms(b0 - k_full, -1):
            for j, cj in _binomial_terms(b1, -1):
                _accumulate(out["tutte"], (i, j), mult * ci * cj)
        _accumulate(out["chromatic"], (b0, 0), sign * mult)
        _accumulate(out["flow"], (b1, 0), (-1 if (n - size) % 2 else 1) * mult)
        # With t = 1 the Negami row is x^r y^n T(G; (x+y)/x, (x+y)/y),
        # whose subset expansion is sum over S of x^|S| y^(|E|-|S|).
        _accumulate(out["negami"], (size, n - size), mult)
    return out


def kirchhoff_forests(vertices: int, edges: tuple[Edge, ...]) -> int:
    """Number of maximal spanning forests: product of per-component
    reduced-Laplacian determinants (matrix-tree theorem)."""
    parent = list(range(vertices))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(v)] = find(u)
    groups: dict[int, list[int]] = {}
    for v in range(vertices):
        groups.setdefault(find(v), []).append(v)
    total = 1
    for root, members in groups.items():
        index = {v: i for i, v in enumerate(members[1:])}
        lap = [[Fraction(0)] * len(index) for _ in index]
        for u, v in edges:
            if u == v or find(u) != root:
                continue
            for a, b in ((u, v), (v, u)):
                if a in index:
                    lap[index[a]][index[a]] += 1
                    if b in index:
                        lap[index[a]][index[b]] -= 1
        total *= _det(lap)
    return total


def _det(a: list[list[Fraction]]) -> int:
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return int(det)


def proper_colorings(vertices: int, edges: tuple[Edge, ...], colors: int) -> int:
    return sum(
        all(col[u] != col[v] for u, v in edges)
        for col in itertools.product(range(colors), repeat=vertices)
    )


def _evaluate(p: Poly, x: int, y: int) -> int:
    return sum(c * x ** a * y ** b for (a, b), c in p.items())


def _parse_poly(text: str) -> Poly:
    data = json.loads(text)
    out: Poly = {}
    for term in data["terms"]:
        _accumulate(out, (int(term["x"]), int(term["y"])), int(term["c"]))
    return out


def _check_cohomology(cmd: Command, out: str) -> list[str]:
    problems = []
    ref = EXPECTED_DIR / f"{cmd.graph}-{cmd.option}.txt"
    if out != ref.read_text(encoding="utf-8"):
        problems.append(f"table differs from the reference {ref.name}")
    euler: Poly = {}
    for line in out.splitlines():
        m = _H_LINE.fullmatch(line)
        if m:
            i, j, k, free = map(int, m.groups())
            _accumulate(euler, (j, k), -free if i % 2 else free)
    if euler != chain_euler(chain_dims(cmd.vertices, cmd.edges, cmd.option)):
        problems.append("alternating sum of free ranks differs from the chain Euler characteristic")
    return problems


def _check_dump(cmd: Command, out: str) -> list[str]:
    dims = chain_dims(cmd.vertices, cmd.edges, cmd.option)
    blocks = json.loads(out)
    jks = sorted(set(dims[0]) | set(dims[1]))
    if [tuple(b["bidegree"]) for b in blocks] != jks or any(b["i"] != 0 for b in blocks):
        return [f"blocks {[(b['i'], b['bidegree']) for b in blocks]} differ from height 0 x {jks}"]
    problems = []
    nnz = 0
    for b in blocks:
        jk = tuple(b["bidegree"])
        rows, cols = dims[1].get(jk, 0), dims[0].get(jk, 0)
        if (b["rows"], b["cols"]) != (rows, cols):
            problems.append(f"block {jk} is {b['rows']}x{b['cols']}, chain dimensions say {rows}x{cols}")
        cells = [(r, c) for r, c, _ in b["entries"]]
        if cells != sorted(set(cells)) or any(not (0 <= r < rows and 0 <= c < cols) for r, c in cells):
            problems.append(f"block {jk} entries are unsorted, repeated or out of range")
        if any(v != 1 for _, _, v in b["entries"]):
            problems.append(f"block {jk} has a height-0 entry other than 1")
        nnz += len(cells)
    # From the empty state every per-edge map is unsigned: a loop keeps all
    # 2^|V| component basis elements, a link kills those with t in both ends.
    want = sum(2 ** cmd.vertices if u == v else 3 * 2 ** (cmd.vertices - 2) for u, v in cmd.edges)
    if nnz != want:
        problems.append(f"d^0 has {nnz} nonzeros, expected {want}")
    return problems


def _check_check(out: str) -> list[str]:
    reports = json.loads(out)
    names = [r["name"] for r in reports]
    failed = [r["name"] for r in reports if r["passed"] is not True]
    missing = [n for n in CHECK_NAMES if n not in names]
    problems = []
    if failed:
        problems.append(f"checks not passed: {failed}")
    if missing:
        problems.append(f"checks missing: {missing}")
    return problems


def _check_poly(cmd: Command, out: str, expected: dict[str, Poly]) -> list[str]:
    got = _parse_poly(out)
    problems = []
    if got != expected[cmd.option]:
        problems.append(f"{cmd.option} polynomial differs from its subset expansion")
    if cmd.option == "tutte":
        forests = kirchhoff_forests(cmd.vertices, cmd.edges)
        if _evaluate(got, 1, 1) != forests:
            problems.append(f"T(1,1) = {_evaluate(got, 1, 1)}, Kirchhoff count is {forests}")
    if cmd.option == "chromatic" and cmd.vertices <= 8:
        for lam in range(4):
            count = proper_colorings(cmd.vertices, cmd.edges, lam)
            if _evaluate(got, lam, 0) != count:
                problems.append(f"P({lam}) = {_evaluate(got, lam, 0)}, brute force gives {count}")
    return problems


def check_outputs(commands: list[Command], outputs: list[str]) -> list[list[str]]:
    """Problems found in each command's stdout (empty list: output correct)."""
    expected_polys: dict[str, dict[str, Poly]] = {}  # subset expansions by graph name
    result = []
    for cmd, out in zip(commands, outputs):
        try:
            if cmd.kind == "cohomology":
                problems = _check_cohomology(cmd, out)
            elif cmd.kind == "dump":
                problems = _check_dump(cmd, out)
            elif cmd.kind == "check":
                problems = _check_check(out)
            else:
                if cmd.graph not in expected_polys:
                    expected_polys[cmd.graph] = expected_polynomials(cmd.vertices, cmd.edges)
                problems = _check_poly(cmd, out, expected_polys[cmd.graph])
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        result.append(problems)
    return result
