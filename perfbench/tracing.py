"""Span recorder for the traced benchmark run.

The recorder wraps public functions of each layer of `graphhom` from the
outside, at every module attribute that refers to them (so `state_stats`
is traced whether `cube`, `invariants` or `multigraph` itself calls it),
and methods on their class; the wrappers can be installed and removed
again. A target that no longer exists is reported as absent rather than
failing the run. Per function it keeps the call count, the inclusive time
of outermost calls (`s`, so recursion is not counted twice) and self time
(`self_s`: span minus the spans it caused). Spans themselves (id, name,
start, end, parent id) are kept in memory up to a cap and written out by
`write` when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Callable

SPAN_CAP = 20_000

# (module of graphhom, attribute path, metric prefix)
TARGETS = (
    ("cli", "run", "cli.run"),
    ("multigraph", "state_stats", "multigraph.state_stats"),
    ("invariants", "yamada_state_sum", "invariants.yamada_state_sum"),
    ("invariants", "g_polynomials", "invariants.g_polynomials"),
    ("invariants", "eval_del_con", "invariants.eval_del_con"),
    ("laurent", "substitute_shift", "laurent.substitute_shift"),
    ("cube", "build_complex", "cube.build_complex"),
    ("cube", "chain_module", "cube.chain_module"),
    ("cube", "per_edge_map", "cube.per_edge_map"),
    ("matrices", "IntMatrix.__matmul__", "matrices.matmul"),
    ("matrices", "IntMatrix.submatrix", "matrices.submatrix"),
    ("matrices", "rank", "matrices.rank"),
    ("homology", "cohomology", "homology.cohomology"),
    ("homology", "smith_normal_form", "homology.smith_normal_form"),
    ("homology", "induced_map_ranks", "homology.induced_map_ranks"),
    ("verify", "check_deletion_contraction", "verify.check.deletion_contraction"),
    ("verify", "check_euler", "verify.check.euler"),
    ("verify", "check_permutation_invariance", "verify.check.permutation_invariance"),
    ("verify", "check_projection", "verify.check.projection"),
    ("verify", "check_retraction", "verify.check.retraction"),
)


class Recorder:
    def __init__(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [calls, s, self_s]
        self.counts: dict[str, int] = {}
        self.builds: list[tuple] = []  # (graph, variant) per build_complex call
        self.largest_block: tuple[int, int, int] = (0, 0, 0)  # nnz, rows, cols
        self.absent: set[str] = set()
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.dropped_spans = 0
        self._next_id = 0
        self._stack: list[list] = []  # open spans: [span id, child seconds]
        self._depth: dict[str, int] = {}
        self._paused = 0.0  # seconds spent in hooks, excluded from every span
        self._patches: list[tuple[tuple[object, str], Callable, Callable]] = []

    def attach(self, targets=TARGETS) -> None:
        """Build a wrapper for each target that exists in the imported
        package and find every module attribute and class slot it replaces;
        `install` and `uninstall` then switch between them."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "graphhom"]
        for module_name, attr_path, name in targets:
            owner = sys.modules.get(f"graphhom.{module_name}")
            *parents, attr = attr_path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                self.absent.add(name)
                continue
            wrapper = self._wrap(name, fn, HOOKS.get(name))
            if parents:
                sites = [(owner, attr)]
            else:
                sites = [(m, key) for m in modules for key, value in vars(m).items() if value is fn]
            self._patches.extend((site, fn, wrapper) for site in sites)

    def install(self) -> None:
        for (owner, attr), _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for (owner, attr), fn, _ in self._patches:
            setattr(owner, attr, fn)

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        rec = self
        totals = self.totals.setdefault(name, [0, 0.0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = rec._stack
            span_id = rec._next_id
            rec._next_id += 1
            parent = stack[-1][0] if stack else -1
            depth = rec._depth.get(name, 0)
            rec._depth[name] = depth + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            paused0 = rec._paused
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec._depth[name] = depth
                duration = end - start - (rec._paused - paused0)
                totals[0] += 1
                if depth == 0:
                    totals[1] += duration
                totals[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(rec.spans) < SPAN_CAP:
                    rec.spans.append((span_id, name, start, end, parent))
                else:
                    rec.dropped_spans += 1
            if hook is not None:
                hook_start = clock()
                try:
                    hook(rec, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    rec.absent.add(f"hook of {name}")
                rec._paused += clock() - hook_start
            return result

        return wrapper

    def add(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def reset(self) -> None:
        """Start a new pass: zero the totals and counts, keep the spans."""
        for totals in self.totals.values():
            totals[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.builds.clear()
        self.largest_block = (0, 0, 0)

    def metrics(self) -> dict[str, float]:
        """Per-pass metrics, every known name present (0 when not called)."""
        out: dict[str, float] = {}
        for _, _, name in TARGETS:
            calls, s, self_s = self.totals.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
        # Counts derived from arguments and results at the same boundaries.
        for name in ("homology.elim_cells", "homology.nonzero_blocks", "cube.chain_rank"):
            out[name] = self.counts.get(name, 0)
        out["cube.block_nnz_max"] = self.largest_block[0]
        out["verify.build_reuse"] = len(set(self.builds)) / len(self.builds) if self.builds else 0
        return out

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        data = {
            **extra,
            "absent": sorted(self.absent),
            "largest_block": dict(zip(("nnz", "rows", "cols"), self.largest_block)),
            "span_fields": ["id", "name", "start_s", "end_s", "parent"],
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }
        path.write_text(json.dumps(data), encoding="utf-8")


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _on_build(rec: Recorder, args: tuple, kwargs: dict, cx) -> None:
    rec.builds.append((_arg(args, kwargs, 0, "G"), _arg(args, kwargs, 1, "variant")))
    rec.add("cube.chain_rank", sum(cx.rank(i) for i in range(cx.height_count)))
    for blocks in cx.blocks:
        for b in blocks.values():
            rec.largest_block = max(rec.largest_block, (b.nnz(), b.rows, b.cols))


def _on_cohomology(rec: Recorder, args: tuple, kwargs: dict, table) -> None:
    for blocks in _arg(args, kwargs, 0, "cx").blocks:
        for b in blocks.values():
            if not b.is_zero():
                rec.add("homology.nonzero_blocks", 1)
                rec.add("homology.elim_cells", b.rows * b.cols)


HOOKS = {"cube.build_complex": _on_build, "homology.cohomology": _on_cohomology}
