"""Benchmark entry point: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload coh-elim --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Set-up is measured several times, each
in a fresh interpreter started by `worker.py --setup-only`; the measured
run is one more fresh interpreter (see `worker.py`). A human-readable
report of every metric, with its unit, goes to stderr; the last line of
stdout is the JSON result: the `end_to_end` metrics of BENCHMARK.json with
`--trace 0`, its `per_layer` metrics with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5  # set-ups per run, the last one being the measured run's own
TIME_LIMIT = 170.0  # seconds for the whole run, set-ups included


def spawn(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py with `args`; return its JSON result and its set-up
    time, scaled to the reference speed by the worker's own calibration."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - start),
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, (result["ready"] - start) * result["factor"]


def main() -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "graphhom" / "cli.py").is_file():
        print(f"error: no graphhom source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + TIME_LIMIT
    out_dir = ROOT / ".perfbench_out"
    tag = f"{args.workload}-seed{args.seed}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    setups = []
    try:
        for k in range(SETUP_RUNS - 1):
            workdir = out_dir / f"{tag}-{os.getpid()}-setup{k}"
            setups.append(spawn([*common, "--workdir", str(workdir), "--setup-only"], deadline)[1])
            shutil.rmtree(workdir, ignore_errors=True)
        workdir = out_dir / f"{tag}-{os.getpid()}"
        result, setup = spawn(
            [*common, "--trace", str(args.trace), "--workdir", str(workdir),
             "--trace-file", str(out_dir / f"trace-{tag}.json")],
            deadline,
        )
        shutil.rmtree(workdir, ignore_errors=True)
    except (subprocess.SubprocessError, OSError, ValueError, KeyError, IndexError) as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    measured = {**result["end_to_end"], "setup_s": statistics.median(setups)}
    measured.update(result["per_layer"])
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {result['report']}",
          file=sys.stderr)
    print(f"  {'fail_ratio':40s} {failed / attempted:14.6g} ratio ({failed}/{attempted} commands)",
          file=sys.stderr)
    for name, value in measured.items():
        print(f"  {name:40s} {value:14.6g} {units.get(name, '')}", file=sys.stderr)
    for problem in result["problems"][:20]:
        print(f"  problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not result["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
