"""Seeded inputs and command lists of the benchmark workloads.

The seed only permutes edge orders and draws random graphs; the program
under test sees nothing but the graph JSON files written here and the
argument vectors handed to `graphhom.cli.run`. One seed gives one edge
order per graph; the set of seeds supplies the variety of orders.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

Edge = tuple[int, int]

WORKLOADS = ("coh-elim", "dump-build", "check-all", "poly-statesum")
POLY_WHICH = ("yamada", "g", "tutte", "chromatic", "flow", "negami")

# poly-statesum: one (vertices, edges) size per graph, the same for every
# seed, so that only graph structure varies between seeds. 20 graphs x 6
# polynomials = 120 commands; a third have more than 8 vertices. The 16
# slowest commands are the state sums of the 14- and 15-edge graphs, so
# cmd_p90_s (the 13th slowest) falls inside a size class, not between two.
POLY_SIZES = tuple(
    (5 + k % 6, e) for k, e in enumerate([12] * 7 + [13] * 5 + [14] * 6 + [15] * 2)
)
POLY_MAX_EDGES = 15


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus what the oracles need to judge its output."""

    kind: str  # "cohomology", "dump", "check" or "poly"
    graph: str
    option: str  # variant for cohomology/dump, polynomial for poly, "" for check
    vertices: int
    edges: tuple[Edge, ...]
    argv: tuple[str, ...]


def cycle(n: int) -> tuple[int, list[Edge]]:
    return n, [(i, (i + 1) % n) for i in range(n)]


def path(n: int) -> tuple[int, list[Edge]]:
    return n + 1, [(i, i + 1) for i in range(n)]


def multiedge(n: int) -> tuple[int, list[Edge]]:
    return 2, [(0, 1)] * n


def bouquet(n: int) -> tuple[int, list[Edge]]:
    return 1, [(0, 0)] * n


def complete(n: int) -> tuple[int, list[Edge]]:
    return n, [(u, v) for u in range(n) for v in range(u + 1, n)]


CHECK_GRAPHS = {
    "bigon": multiedge(2),
    "triangle": cycle(3),
    "theta": multiedge(3),
    "bouquet4": bouquet(4),
    "multiedge5": multiedge(5),
    "cycle5": cycle(5),
    "K4": complete(4),
}


def random_multigraph(rng: random.Random, vertices: int, edge_count: int) -> list[Edge]:
    """Loopless multigraph: a cycle through all vertices in random order plus
    random chords, parallel ones allowed. With no isthmus, which
    deletion-contraction passes without branching, the cost of a graph
    depends less on where its random edges fall: the spread of cmd_p50_s
    over seeds is about 0.11, against 0.18 for a random tree plus edges."""
    order = list(range(vertices))
    rng.shuffle(order)
    edges = [(order[i], order[(i + 1) % vertices]) for i in range(vertices)]
    while len(edges) < edge_count:
        u, v = rng.sample(range(vertices), 2)
        edges.append((u, v))
    return edges


def make_commands(workload: str, seed: int, workdir: Path) -> list[Command]:
    """Write the seed's graph files under `workdir`; return the command list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    commands: list[Command] = []

    def graph(name: str, vertices: int, edges: list[Edge]) -> tuple[str, tuple[Edge, ...]]:
        edges = list(edges)
        rng.shuffle(edges)
        file = workdir / f"{name}.json"
        file.write_text(json.dumps({"vertices": vertices, "edges": edges}), encoding="utf-8")
        return str(file), tuple(edges)

    def add(kind: str, name: str, option: str, vertices: int, edges: list[Edge], extra: list[str]):
        file, shuffled = graph(name, vertices, edges)
        argv = (kind, *extra, "--input", file)
        commands.append(Command(kind, name, option, vertices, shuffled, argv))

    if workload == "coh-elim":
        add("cohomology", "cycle8", "tutte", *cycle(8), ["--variant", "tutte"])
        add("cohomology", "path6", "yamada", *path(6), ["--variant", "yamada"])
    elif workload == "dump-build":
        add("dump", "multiedge7", "yamada", *multiedge(7), ["--variant", "yamada", "--height", "0"])
        add("dump", "cycle10", "tutte", *cycle(10), ["--variant", "tutte", "--height", "0"])
    elif workload == "check-all":
        for name, (vertices, edges) in CHECK_GRAPHS.items():
            add("check", name, "", vertices, edges, ["--all"])
    else:
        for k, (vertices, edge_count) in enumerate(POLY_SIZES):
            name = f"random{k:02d}"
            file, edges = graph(name, vertices, random_multigraph(rng, vertices, edge_count))
            for which in POLY_WHICH:
                argv = ("poly", "--which", which, "--max-edges", str(POLY_MAX_EDGES), "--json",
                        "--input", file)
                commands.append(Command("poly", name, which, vertices, edges, argv))
    return commands
