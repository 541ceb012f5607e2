"""Command-line front end.

Single input format (graph JSON: {"vertices": n, "edges": [[u, v], ...]},
edge array order is semantic) and deterministic output: canonical
polynomial strings or the JSON schemas of the owning modules. Exit codes:
0 on success, 1 on parse/validation errors, 2 when a requested check
fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .cube import BigradedComplex, build_complex
from .homology import tutte_cohomology, yamada_cohomology
from .invariants import eval_del_con, g_polynomials, specialization, yamada_state_sum
from .laurent import BivariateLaurent
from .multigraph import Multigraph, from_json_dict
from .verify import CHECK_NAMES, run_checks

POLY_CHOICES = ("yamada", "g", "tutte", "chromatic", "flow", "negami")


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise _CliError(message)


@cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and shared by later `run` calls:
    parsing keeps no state in it."""
    parser = _Parser(
        prog="graphhom",
        description="Exact graph polynomials and bigraded graph cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="evaluate a graph polynomial")
    p_poly.add_argument(
        "--which", required=True, choices=POLY_CHOICES, help="which polynomial to evaluate"
    )
    p_poly.add_argument("--input", required=True, help="graph JSON file")
    p_poly.add_argument("--json", action="store_true", help="emit polynomial JSON")
    p_poly.add_argument("--negami-t", type=int, default=1, help="integer value pinned for t")
    p_poly.add_argument("--max-edges", type=int, default=12, help="refuse graphs with more edges")

    p_coh = sub.add_parser("cohomology", help="integer cohomology table")
    p_coh.add_argument(
        "--variant",
        required=True,
        choices=("yamada", "tutte"),
        help="which complex's cohomology to compute",
    )
    p_coh.add_argument("--input", required=True, help="graph JSON file")
    p_coh.add_argument("--json", action="store_true", help="emit the table as JSON")

    p_check = sub.add_parser("check", help="run structural checks")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true", help="run every check")
    group.add_argument("--only", help="comma-separated check names")
    p_check.add_argument("--input", required=True, help="graph JSON file")
    p_check.add_argument("--max-edges", type=int, default=12, help="refuse graphs with more edges")

    p_dump = sub.add_parser("dump", help="differential matrices as JSON")
    p_dump.add_argument("--input", required=True, help="graph JSON file")
    p_dump.add_argument(
        "--variant", required=True, choices=("yamada", "tutte"), help="which complex to build"
    )
    p_dump.add_argument(
        "--height",
        type=int,
        default=None,
        help="print only the blocks of the differential out of this height (default:"
        " every height); every height is still verified, only this one is written",
    )

    return parser


def _load_graph(path: str, max_edges: int | None = None) -> Multigraph:
    # the complex commands pass no `max_edges`: they are refused by chain rank, by
    # `cube._refuse`, before any state is labelled
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise _CliError(f"{path}: invalid JSON ({exc})") from exc
    G = from_json_dict(data)
    if max_edges is not None and G.edge_count > max_edges:
        raise _CliError(
            f"{path}: graph has {G.edge_count} edges, over the --max-edges limit of {max_edges}"
        )
    return G


def _cmd_poly(args: argparse.Namespace) -> int:
    G = _load_graph(args.input, args.max_edges)
    names = ("x", "y")
    if args.which == "yamada":
        poly = yamada_state_sum(G)
    elif args.which == "g":
        poly = g_polynomials(G)[1]
        names = ("t", "w")
    else:
        poly = eval_del_con(G, specialization(args.which, negami_t=args.negami_t))
    if args.json:
        print(_poly_text(poly))
    else:
        print(poly.to_string(*names))
    return 0


def _cmd_cohomology(args: argparse.Namespace) -> int:
    G = _load_graph(args.input)
    table = yamada_cohomology(G) if args.variant == "yamada" else tutte_cohomology(G)
    if args.json:
        print(json.dumps(table.to_json_dict(), indent=2))
        return 0
    print(f"variant: {table.variant}")
    for (i, j, k), s in table.sorted_items():
        line = f"H^{i} ({j},{k}): free rank {s.free_rank}"
        if s.torsion:
            line += f", torsion {list(s.torsion)}"
        print(line)
    print(f"euler: {table.euler().to_string('t', 'w')}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    G = _load_graph(args.input, args.max_edges)
    if args.all:
        names = CHECK_NAMES
    else:
        names = [name.strip() for name in args.only.split(",") if name.strip()]
    reports = run_checks(G, names)
    print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    return 0 if all(r.passed for r in reports) else 2


def _cmd_dump(args: argparse.Namespace) -> int:
    G = _load_graph(args.input)
    if args.height is not None and not 0 <= args.height < max(G.edge_count, 1):
        raise _CliError(f"height {args.height} out of range")
    cx = build_complex(G, args.variant)
    heights = [i for i in range(len(cx.blocks)) if args.height in (None, i)]
    print(_blocks_text(cx, heights))
    return 0


# One entry [row, col, value] of a block, indented as `json.dumps(..., indent=2)` indents it.
_ENTRY = "      [\n        %d,\n        %d,\n        %d\n      ]"


def _blocks_text(cx: BigradedComplex, heights: list[int]) -> str:
    """The JSON list of the blocks of d^i for i in `heights`, one object per
    bidegree in order, with "i", "bidegree", "rows", "cols" and the entries
    sorted by (row, col), byte for byte as `json.dumps(..., indent=2)` writes
    it: only the blocks of those heights are read."""
    items = []
    for i in heights:
        for (j, k), block in sorted(cx.blocks[i].items()):
            entries = ",\n".join([_ENTRY % entry for entry in block.sorted_entries()])
            items.append(
                f'  {{\n    "i": {i},\n    "bidegree": [\n      {j},\n      {k}\n    ],\n'
                f'    "rows": {block.rows},\n    "cols": {block.cols},\n    "entries": '
                + (f"[\n{entries}\n    ]\n  }}" if entries else "[]\n  }")
            )
    return "[\n" + ",\n".join(items) + "\n]" if items else "[]"


# One term {"x", "y", "c"} of a polynomial, indented as `json.dumps(..., indent=2)` indents it.
_TERM = '    {\n      "x": %d,\n      "y": %d,\n      "c": "%d"\n    }'


def _poly_text(poly: BivariateLaurent) -> str:
    """`poly.to_json_dict()`, its terms in canonical order with each
    coefficient as a decimal string, byte for byte as
    `json.dumps(..., indent=2)` writes it."""
    terms = ",\n".join([_TERM % term for term in poly.terms()])
    return '{\n  "terms": ' + (f"[\n{terms}\n  ]" if terms else "[]") + "\n}"


_COMMANDS = {
    "poly": _cmd_poly,
    "cohomology": _cmd_cohomology,
    "check": _cmd_check,
    "dump": _cmd_dump,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "max_edges", 0) < 0:
            parser.error(f"argument --max-edges: must be at least 0, got {args.max_edges}")
        return _COMMANDS[args.command](args)
    except (_CliError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
