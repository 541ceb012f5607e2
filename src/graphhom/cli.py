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

from .cube import build_complex
from .homology import cohomology
from .invariants import eval_del_con, g_polynomials, specialization, yamada_state_sum
from .multigraph import Multigraph, from_json_dict
from .verify import (
    CHECK_NAMES,
    check_deletion_contraction,
    check_euler,
    check_permutation_invariance,
    check_projection,
    check_retraction,
    default_gamma,
    default_sigma,
)

POLY_CHOICES = ("yamada", "g", "tutte", "chromatic", "flow", "negami")


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1, not argparse's 2
        raise _CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="graphhom",
        description="Exact graph polynomials and bigraded graph cohomology.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="evaluate a graph polynomial")
    p_poly.add_argument("--which", required=True, choices=POLY_CHOICES)
    p_poly.add_argument("--input", required=True, help="graph JSON file")
    p_poly.add_argument("--json", action="store_true", help="emit polynomial JSON")
    p_poly.add_argument("--negami-t", type=int, default=1, help="integer value pinned for t")
    p_poly.add_argument("--max-edges", type=int, default=12)

    p_coh = sub.add_parser("cohomology", help="integer cohomology table")
    p_coh.add_argument("--variant", required=True, choices=("yamada", "tutte"))
    p_coh.add_argument("--input", required=True)
    p_coh.add_argument("--json", action="store_true")
    p_coh.add_argument("--max-edges", type=int, default=12)

    p_check = sub.add_parser("check", help="run structural checks")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--all", action="store_true")
    group.add_argument("--only", help="comma-separated check names")
    p_check.add_argument("--input", required=True)
    p_check.add_argument("--max-edges", type=int, default=12)

    p_dump = sub.add_parser("dump", help="differential matrices as JSON")
    p_dump.add_argument("--input", required=True)
    p_dump.add_argument("--variant", required=True, choices=("yamada", "tutte"))
    p_dump.add_argument("--height", type=int, default=None)
    p_dump.add_argument("--max-edges", type=int, default=12)

    return parser


def _load_graph(path: str, max_edges: int) -> Multigraph:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise _CliError(f"{path}: invalid JSON ({exc})") from exc
    G = from_json_dict(data)
    if G.edge_count > max_edges:
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
        print(json.dumps(poly.to_json_dict(), indent=2))
    else:
        print(poly.to_string(*names))
    return 0


def _cmd_cohomology(args: argparse.Namespace) -> int:
    G = _load_graph(args.input, args.max_edges)
    cx = build_complex(G, args.variant, max_edges=args.max_edges)
    table = cohomology(cx)
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
        selected = list(CHECK_NAMES)
    else:
        selected = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = [name for name in selected if name not in CHECK_NAMES]
        if unknown:
            raise _CliError(f"unknown checks: {', '.join(unknown)}")
        selected = [name for name in CHECK_NAMES if name in selected]
    runners = {
        "deletion_contraction": lambda: check_deletion_contraction(G),
        "euler": lambda: check_euler(G, max_edges=args.max_edges),
        "permutation_invariance": lambda: check_permutation_invariance(
            G, default_sigma(G), max_edges=args.max_edges
        ),
        "projection": lambda: check_projection(G, default_gamma(G), max_edges=args.max_edges),
        "retraction": lambda: check_retraction(G, max_edges=args.max_edges),
    }
    reports = [runners[name]() for name in selected]
    print(json.dumps([r.to_json_dict() for r in reports], indent=2))
    return 0 if all(r.passed for r in reports) else 2


def _cmd_dump(args: argparse.Namespace) -> int:
    G = _load_graph(args.input, args.max_edges)
    if args.height is not None and not 0 <= args.height < max(G.edge_count, 1):
        raise _CliError(f"height {args.height} out of range")
    cx = build_complex(G, args.variant, max_edges=args.max_edges)
    print(json.dumps(cx.blocks_json(args.height), indent=2))
    return 0


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
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
