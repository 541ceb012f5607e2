"""Self-tests of the benchmark itself; run from the checkout root:

    python3 perfbench/selftest.py

1. The oracles accept the real outputs of every workload, and a
   deliberately corrupted output, a wrong exit code or an uncaught
   exception is counted as a failed command, so it raises fail_ratio.
   The recorder reports a missing target as absent and removes its
   wrappers cleanly.
2. Two traced runs of one seed report exactly the same per-layer counts,
   the printed metric names are exactly those of BENCHMARK.json, and
   trace_overhead_s is positive on poly-statesum, where the wrappers run
   about 760,000 times per pass.
3. In a directory that holds only BENCHMARK.json and perfbench/, run.py
   exits nonzero without printing a result.

Takes about eight minutes; exit code 0 iff every test passed.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

from worker import HERE, Pass, count_failures, load_cli, run_pass
from workloads import WORKLOADS, make_commands

ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SEED = 3
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def _bump_free_rank(text: str) -> str:
    return re.sub(r"free rank (\d+)", lambda m: f"free rank {int(m.group(1)) + 1}", text, count=1)


def _drop_entry(text: str) -> str:
    blocks = json.loads(text)
    max(blocks, key=lambda b: len(b["entries"]))["entries"].pop()
    return json.dumps(blocks, indent=2)


def _grow_rows(text: str) -> str:
    blocks = json.loads(text)
    blocks[0]["rows"] += 1
    return json.dumps(blocks, indent=2)


def _fail_a_check(text: str) -> str:
    reports = json.loads(text)
    reports[-1]["passed"] = False
    return json.dumps(reports, indent=2)


def _bump_coefficient(text: str) -> str:
    poly = json.loads(text)
    poly["terms"] = poly["terms"] or [{"x": 0, "y": 0, "c": "0"}]  # e.g. a zero flow polynomial
    poly["terms"][0]["c"] = str(int(poly["terms"][0]["c"]) + 1)
    return json.dumps(poly, indent=2)


CORRUPTIONS = {
    "cohomology": [("free rank + 1", _bump_free_rank),
                   ("torsion dropped", lambda t: t.replace(", torsion [2]", "", 1))],
    "dump": [("one entry removed", _drop_entry), ("rows + 1", _grow_rows)],
    "check": [("one report not passed", _fail_a_check)],
    "poly": [("leading coefficient + 1", _bump_coefficient)],
}


def corrupted(reference: Pass, index: int, text: str) -> Pass:
    outputs = list(reference.outputs)
    digests = list(reference.digests)
    outputs[index] = text
    digests[index] = "corrupted"
    return replace(reference, outputs=outputs, digests=digests)


def test_oracles() -> None:
    cli_run = load_cli()
    for workload in WORKLOADS:
        commands = make_commands(workload, SEED, OUT / f"selftest-{workload}")
        reference = run_pass(commands, cli_run, keep_outputs=True)
        attempted, failed, problems = count_failures(commands, [reference])
        expect(failed == 0 and not problems, f"{workload}: {attempted} real outputs accepted {problems[:3]}")
        seen_poly = set()
        for i, cmd in enumerate(commands):
            if cmd.kind == "poly" and cmd.option in seen_poly or cmd.kind != "poly" and i > 0:
                continue
            seen_poly.add(cmd.option)
            for what, corrupt in CORRUPTIONS[cmd.kind]:
                text = corrupt(reference.outputs[i])
                bad = corrupted(reference, i, text)
                _, failed, problems = count_failures(commands, [bad])
                expect(text != reference.outputs[i] and failed == 1,
                       f"{workload} {cmd.graph} {cmd.option}: {what} is caught: {problems[:2]}")
            wrong_code = replace(reference, codes=[2 if j == i else c for j, c in enumerate(reference.codes)])
            _, failed, _ = count_failures(commands, [reference, wrong_code])
            expect(failed == 1, f"{workload} {cmd.graph} {cmd.option}: exit code 2 is caught")
        last = commands[-1].argv

        def raising(argv):
            if tuple(argv) == last:
                raise IndexError("raised inside the program")
            return cli_run(argv)

        _, failed, problems = count_failures(commands, [reference, run_pass(commands, raising, False)])
        expect(failed == 1, f"{workload}: an uncaught exception fails one command: {problems[:1]}")
        shutil.rmtree(OUT / f"selftest-{workload}", ignore_errors=True)


def test_tracing_attach() -> None:
    load_cli()
    import graphhom.cube as cube
    from tracing import TARGETS, Recorder

    recorder = Recorder()
    recorder.attach([*TARGETS, ("cube", "removed_function", "cube.removed_function")])
    expect(recorder.absent == {"cube.removed_function"} and "cube.build_complex.calls" in recorder.metrics(),
           "a target missing from the program is reported absent, not an error")
    original = cube.state_stats
    recorder.install()
    patched = cube.state_stats is not original
    recorder.uninstall()
    expect(patched and cube.state_stats is original, "wrappers install at import sites and uninstall")


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=200,
    )


def test_counts_repeat() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    result = json.loads(run_bench("check-all", 0).stdout.splitlines()[-1])
    expect(list(result["metrics"]) == [m["name"] for m in spec["end_to_end"]],
           "untraced run prints exactly the end_to_end metrics")
    for workload in WORKLOADS:
        runs = [json.loads(run_bench(workload, 1).stdout.splitlines()[-1]) for _ in range(2)]
        expect(all(r["correct"] for r in runs), f"{workload}: traced runs are correct")
        expect(all(list(r["metrics"]) == [m["name"] for m in spec["per_layer"]] for r in runs),
               f"{workload}: traced run prints exactly the per_layer metrics")
        counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "ratio")}
                  for r in runs]
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
        expect(not diff, f"{workload}: {len(counts[0])} per-layer counts repeat exactly {diff}")
        if workload == "poly-statesum":
            overhead = [r["metrics"]["trace_overhead_s"]["value"] for r in runs]
            expect(all(v > 0 for v in overhead), f"{workload}: trace_overhead_s {overhead} is positive")


def test_bare_directory() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("check-all", 0, cwd=bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without the source tree run.py exits {proc.returncode} and prints no result")
    shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    test_bare_directory()
    test_tracing_attach()
    test_oracles()
    test_counts_repeat()
    print(f"{len(failures)} failed" if failures else "all self-tests passed")
    sys.exit(1 if failures else 0)
