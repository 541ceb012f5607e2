"""One workload process: set up, run the closed loop, check every output.

Started by `run.py` in a fresh single-threaded interpreter. Set-up is the
interpreter start, the import of `graphhom` and the writing of the seeded
inputs; `--setup-only` stops there. Then one client calls
`graphhom.cli.run(argv)` in-process for each command of the list, the next
only after the previous returns, with stdout captured. The first pass is
the warm-up and the reference for correctness; it is not timed into any
metric. Timed passes follow while the time budget lasts. With `--trace 1`
they alternate untraced and traced, the traced passes running with the
layer wrappers of `tracing.py` installed. The last line of stdout is a
JSON object for `run.py`.

Every reported time is scaled to a reference machine speed. Between timed
commands the worker stops at checkpoints, at least CHECKPOINT_S of command
time apart, and runs a fixed calibration task there for CAL_SHARE of the
command time since the previous checkpoint. A command's seconds are
multiplied by CAL_REF_S over the mean calibration time of the checkpoints
just before and just after it. On a shared host the speed of the machine
changes by tens of percent within seconds to minutes; the calibration
task, run next to the command, changes with it, so the scaled figures
move far less than raw wall-clock seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
CAL_SHARE = 0.1  # calibration time as a share of the timed command time
CHECKPOINT_S = 0.4  # least command time between two calibration checkpoints
CAL_REF_S = 0.045  # seconds one `calibrate` takes at the reference speed
SETUP_CAL_S = 0.1  # calibration time of a set-up process


def calibrate() -> float:
    """Seconds for one fixed pure-Python task shaped like the program's hot
    loops: row operations on a 160x160 list of lists of ints, then inserts
    into and lookups in a dict keyed by tuples, a few MB in all, so that it
    competes for caches the way the program does. It never calls graphhom,
    so no change to the program moves it."""
    start = time.perf_counter()
    n = 160
    rows = [[(i * 7919 + j * 104729) % 1000003 for j in range(n)] for i in range(n)]
    for p in range(3):
        pivot = rows[p]
        for row in rows[p + 1:]:
            f = row[p]
            for j in range(n):
                row[j] = (row[j] * 3 - f * pivot[j]) % 1000003
    counts: dict[tuple[int, int], int] = {}
    for i in range(30000):
        key = ((i * 40503) & 4095, i % 37)
        counts[key] = counts.get(key, 0) + i
    total = 0
    for i in range(30000):
        total += counts.get(((i * 7) & 4095, i % 37), 0)
    return time.perf_counter() - start


class Speed:
    """Calibration checkpoints interleaved with the timed commands."""

    def __init__(self) -> None:
        self.checkpoints: list[float] = []  # mean seconds of one `calibrate`, per checkpoint
        self.cal_s = 0.0
        self.samples = 0
        self.pending_s = 0.0  # command seconds since the last checkpoint

    def checkpoint(self, seconds: float) -> None:
        """Calibrate for `seconds`, at least once, and record the mean."""
        total, n = 0.0, 0
        while total < seconds or not n:
            total += calibrate()
            n += 1
        self.checkpoints.append(total / n)
        self.cal_s += total
        self.samples += n
        self.pending_s = 0.0

    def after_command(self, seconds: float) -> None:
        self.pending_s += seconds
        if self.pending_s >= CHECKPOINT_S:
            self.checkpoint(CAL_SHARE * self.pending_s)

    def factor(self, index: int | None = None) -> float:
        """Multiplier from measured seconds to seconds at the reference
        speed: for a command run after checkpoint `index - 1` and before
        checkpoint `index`, or for the whole run."""
        if index is None:
            return CAL_REF_S * self.samples / self.cal_s
        return CAL_REF_S * 2 / (self.checkpoints[index - 1] + self.checkpoints[index])


@dataclass
class Pass:
    traced: bool = False
    seconds: list[float] = field(default_factory=list)
    checkpoint: list[int] = field(default_factory=list)  # next checkpoint per command
    scaled: list[float] = field(default_factory=list)  # seconds at the reference speed
    codes: list[int] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    outputs: list[str] = field(default_factory=list)  # reference pass only
    layer: dict[str, float] = field(default_factory=dict)  # traced passes only


def load_cli():
    """Import the program from the checkout's own source tree; return a
    caller that looks `graphhom.cli.run` up on every call, so that the
    traced run sees its wrapper."""
    sys.path.insert(0, str(HERE.parent / "src"))
    import graphhom.cli as cli

    return lambda argv: cli.run(argv)


def run_pass(commands, cli_run, keep_outputs: bool, speed: Speed | None = None) -> Pass:
    """One pass over the commands, with calibration checkpoints if `speed`."""
    p = Pass()
    for cmd in commands:
        gc.collect()
        out = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = cli_run(list(cmd.argv))
        except Exception:  # an uncaught error fails this command, not the run
            code = 1
            out.write(traceback.format_exc())
        p.seconds.append(time.perf_counter() - start)
        text = out.getvalue()
        p.codes.append(code)
        p.digests.append(hashlib.sha256(text.encode()).hexdigest())
        if keep_outputs:
            p.outputs.append(text)
        if speed is not None:
            p.checkpoint.append(len(speed.checkpoints))
            speed.after_command(p.seconds[-1])
    return p


def measure(commands, cli_run, budget: float, min_timed: int, speed: Speed,
            recorder=None) -> list[Pass]:
    """The reference pass, then timed passes while the budget lasts: a pass
    starts only if it should finish within the budget, judged by the
    previous pass, and at least `min_timed` run. With a recorder, timed
    passes alternate untraced and traced, starting untraced, so that each
    traced pass has an untraced neighbour run just before it. Timed passes
    are bracketed by calibration checkpoints."""
    passes = [run_pass(commands, cli_run, keep_outputs=True)]
    speed.checkpoint(CAL_SHARE * CHECKPOINT_S)
    start = time.perf_counter()
    while len(passes) <= min_timed or time.perf_counter() - start + sum(passes[-1].seconds) <= budget:
        traced = recorder is not None and len(passes) % 2 == 0
        if traced:
            recorder.reset()
            recorder.install()
        p = run_pass(commands, cli_run, False, speed)
        if traced:
            recorder.uninstall()
            p.traced, p.layer = True, recorder.metrics()
        passes.append(p)
    speed.checkpoint(CAL_SHARE * max(speed.pending_s, CHECKPOINT_S))
    for p in passes[1:]:
        p.scaled = [s * speed.factor(k) for s, k in zip(p.seconds, p.checkpoint)]
    return passes


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(passes: list[Pass]) -> dict[str, float]:
    medians = [statistics.median(col) for col in zip(*(p.scaled for p in passes))]
    return {
        "wall_s": sum(medians),
        "cmd_p50_s": percentile(medians, 50),
        "cmd_p90_s": percentile(medians, 90),
    }


def count_failures(commands, passes: list[Pass]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems). The first pass is the reference: the
    oracles judge its outputs, and every later pass must repeat them byte
    for byte. Every command must exit 0."""
    from oracles import check_outputs

    ref = passes[0]
    verdicts = check_outputs(commands, ref.outputs)
    problems = [f"{c.graph} {' '.join(c.argv[:3])}: {v}" for c, v in zip(commands, verdicts) if v]
    attempted = failed = 0
    for p in passes:
        for i, cmd in enumerate(commands):
            attempted += 1
            if p.codes[i] != 0 or p.digests[i] != ref.digests[i] or verdicts[i]:
                failed += 1
                if p.codes[i] != 0:
                    problems.append(f"{cmd.graph} {' '.join(cmd.argv[:3])}: exit code {p.codes[i]}")
                elif p.digests[i] != ref.digests[i]:
                    problems.append(f"{cmd.graph} {' '.join(cmd.argv[:3])}: output changed between passes")
    return attempted, failed, problems


def layer_metrics(passes: list[Pass], factor: float) -> tuple[dict[str, float], list[str]]:
    """Counts from the first traced pass (they must repeat in every traced
    pass), times as medians over the traced passes scaled by the run's
    `factor`, and the tracing overhead as the median over pairs of a
    traced pass minus the untraced pass just before it."""
    traced = [p for p in passes if p.traced]
    out: dict[str, float] = {}
    problems = []
    for name, first in traced[0].layer.items():
        values = [p.layer[name] for p in traced]
        if name.endswith(".s") or name.endswith(".self_s"):
            out[name] = factor * statistics.median(values)
        else:
            out[name] = first
            if any(v != first for v in values):
                problems.append(f"per-layer count {name} differs between passes: {values}")
    out["trace_overhead_s"] = statistics.median(
        sum(p.scaled) - sum(before.scaled) for before, p in zip(passes, passes[1:]) if p.traced
    )
    return out, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-file", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    cli_run = load_cli()
    from workloads import make_commands

    commands = make_commands(args.workload, args.seed, args.workdir)
    ready = time.monotonic()
    speed = Speed()
    if args.setup_only:
        speed.checkpoint(SETUP_CAL_S)
        print(json.dumps({"ready": ready, "factor": speed.factor()}))
        return 0

    recorder = None
    if args.trace:
        from tracing import Recorder

        recorder = Recorder()
        recorder.attach()
    # A traced run needs two (untraced, traced) pairs for its medians.
    passes = measure(commands, cli_run, args.seconds, 4 if args.trace else 2, speed, recorder)
    factor = speed.factor()
    plain = [p for p in passes[1:] if not p.traced]
    metrics = end_to_end(plain)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report = {"commands": len(commands), "speed_factor": round(factor, 4),
              "calibration_samples": speed.samples, "warmup_s": round(sum(passes[0].seconds), 3),
              "raw_pass_s": [round(sum(p.seconds), 3) for p in plain]}
    problems: list[str] = []
    layer: dict[str, float] = {}
    if recorder is not None:
        layer, problems = layer_metrics(passes, factor)
        traced = [p for p in passes if p.traced]
        report["raw_traced_pass_s"] = [round(sum(p.seconds), 3) for p in traced]
        report["absent"] = sorted(recorder.absent)
        if args.trace_file:
            recorder.write(args.trace_file, {"workload": args.workload, "seed": args.seed,
                                             "metrics": layer, "per_pass": [p.layer for p in traced]})
    attempted, failed, found = count_failures(commands, passes)
    problems = found + problems
    print(json.dumps({
        "ready": ready,
        "factor": factor,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": metrics,
        "per_layer": layer,
        "report": report,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
