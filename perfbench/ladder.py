"""One-shot ladder report: `cohomology` on a fixed ladder of graphs.

    python3 perfbench/ladder.py

Informational, not a workload of the benchmark. Each rung runs once, in
its own interpreter, with a per-graph timeout (TIMEOUT_S) and an
address-space limit (MEMORY_MB); a rung that runs out of time or memory
is recorded as such, never dropped.
Per rung it records the end-to-end time of the CLI command, the time of
`build_complex` and `cohomology` inside it (traced), the total chain rank,
the block with the most nonzeros and the peak RSS; a rung that times out
still reports its build. Writes .perfbench_out/ladder.json and prints a
table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import subprocess
import sys
import time

from worker import HERE, load_cli
from workloads import bouquet, complete, cycle

LADDER = (
    ("K4", "yamada", complete(4)),
    ("cycle6", "yamada", cycle(6)),
    ("bouquet6", "yamada", bouquet(6)),
    ("cycle8", "tutte", cycle(8)),
    ("cycle10", "tutte", cycle(10)),
    ("cycle8", "yamada", cycle(8)),
)
OUT = HERE.parent / ".perfbench_out"
TIMEOUT_S = 120.0  # per rung
MEMORY_MB = 2048  # address space per rung


def _build_summary(recorder) -> dict:
    metrics = recorder.metrics()
    nnz, rows, cols = recorder.largest_block
    return {
        "build_s": round(metrics["cube.build_complex.s"], 3),
        "chain_rank": metrics["cube.chain_rank"],
        "largest_block": f"{rows}x{cols}, {nnz} nonzeros",
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def one_rung(graph_file: str, variant: str) -> None:
    """Run one rung; print a JSON line once the complex is built (kept if
    the rung then times out) and another when the command returns."""
    limit = MEMORY_MB * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    cli_run = load_cli()
    import graphhom.cli as cli
    from tracing import TARGETS, Recorder

    recorder = Recorder()
    recorder.attach([t for t in TARGETS if t[2] in ("cube.build_complex", "homology.cohomology")])
    recorder.install()
    traced_build = cli.build_complex

    def build_and_report(*args, **kwargs):
        cx = traced_build(*args, **kwargs)
        print(json.dumps(_build_summary(recorder)), file=sys.__stdout__, flush=True)
        return cx

    cli.build_complex = build_and_report
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_run(["cohomology", "--variant", variant, "--input", graph_file])
    except MemoryError:
        print(json.dumps({"status": f"out of memory ({MEMORY_MB} MB address space)"}))
        return
    wall = time.perf_counter() - start
    status = "ok" if code == 0 else f"exit code {code}"
    cohomology_s = round(recorder.metrics()["homology.cohomology.s"], 3)
    print(json.dumps({"status": status, "wall_s": round(wall, 3), "cohomology_s": cohomology_s,
                      **_build_summary(recorder)}))


def _last_json(text) -> dict:
    if isinstance(text, bytes):
        text = text.decode()
    lines = (text or "").strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--one", nargs=2, metavar=("GRAPH_FILE", "VARIANT"), help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.one:
        one_rung(*args.one)
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    rows = []
    for name, variant, (vertices, edges) in LADDER:
        graph_file = OUT / f"ladder-{name}-{variant}.json"
        graph_file.write_text(json.dumps({"vertices": vertices, "edges": edges}), encoding="utf-8")
        cmd = [sys.executable, str(HERE / "ladder.py"), "--one", str(graph_file), variant]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S,
                                  cwd=HERE.parent)
            row = _last_json(proc.stdout)
            if proc.returncode != 0:
                row["status"] = f"rung process exited {proc.returncode}"
        except subprocess.TimeoutExpired as exc:
            row = {"status": f"timeout after {TIMEOUT_S:g} s", **_last_json(exc.stdout)}
        finally:
            graph_file.unlink()
        rows.append({"graph": name, "variant": variant, **row})
        print(" | ".join(f"{k}={v}" for k, v in rows[-1].items()), flush=True)
    (OUT / "ladder.json").write_text(json.dumps(
        {"python": sys.version.split()[0], "timeout_s": TIMEOUT_S, "rungs": rows}, indent=2),
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
