"""polylie benchmark runner.

    python3 bench/run.py --workload verify-n3 --seed 42 --seconds 30 --trace 0

Runs from the root of a source checkout and drives `polylie.cli.main(argv)`
in-process, single-threaded, on the workload's command list (see
`workloads.py` and README.md).  With `--trace 0` it repeats the whole list
while another repetition fits in `--seconds` and reports the end-to-end
metrics, timing commands in seconds at a reference CPU speed (`clock.py`);
with `--trace 1` it makes one untraced and one traced pass and
reports the per-layer metrics.  Every output is re-verified after the timed
region.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
`--workload all` runs every workload in turn, each in its own process.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

from clock import RefClock
from tracing import Tracer
from workloads import INCONCLUSIVE, OK, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_out"

# Seed for quoted numbers, and a seed held out for confirming a later claim.
DEFAULT_SEED = 42
HOLDOUT_SEED = 977

# Set-ups in fresh processes per run; setup_s is their median.
SETUPS = 11

# (name, unit) of the end-to-end metrics, each measured with tracing off.
# wall_ref_s and cmd_p50_ref_s are wall_s and cmd_p50_s read on the
# reference clock.  passed_ratio and conclusive_ratio are 1 - failed_ratio
# and 1 - inconclusive_ratio: a bound needs a median that is never 0.
END_TO_END = (("wall_ref_s", "s"), ("cmd_p50_ref_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"), ("passed_ratio", "ratio"),
              ("conclusive_ratio", "ratio"))

LAYERS = ("polyring", "derivation", "span", "canonical", "reductions",
          "grammar", "verify", "cli")
FAILED = "failed"


def set_up(workload, seed: int) -> tuple[dict, list[list[str]]]:
    """Import polylie from src/, build the CLI parser, make the inputs."""
    package = importlib.import_module("polylie")
    if Path(package.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"polylie was imported from {package.__file__}, not {SRC}")
    lib = {name: importlib.import_module(f"polylie.{name}") for name in LAYERS}
    lib["package"] = package
    lib["cli"].build_parser()
    return lib, workload.commands(seed)


# The set-up of a run in a fresh interpreter.  It starts a reference clock
# first thing and prints the monotonic clock (shared by all processes) at
# that moment, the clock's first speed reading, and the reference seconds
# from there until the first command could start.
SETUP_CHILD = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from clock import RefClock
clock = RefClock()
begun = time.clock_gettime(time.CLOCK_MONOTONIC)
clock.start()
speed = clock.speed
import polylie.cli
from workloads import WORKLOADS
polylie.cli.build_parser()
WORKLOADS[sys.argv[3]].commands(int(sys.argv[4]))
ref = clock.now()
clock.stop()
print(begun, speed, ref)
"""


def time_setups(workload, seed: int) -> list[float]:
    """Reference seconds from process start to the first command, for SETUPS
    processes.  The interpreter's start, before the child's clock runs, is
    scaled by the clock's first reading."""
    argv = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE),
            workload.name, str(seed)]
    times = []
    for _ in range(SETUPS):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              check=True)
        begun, speed, ref = map(float, proc.stdout.split())
        times.append((begun - start) * speed + ref)
    return times


def run_list(main, commands: list[list[str]],
             now=perf_counter) -> tuple[float, list[tuple]]:
    """Run every command; returns (seconds, [(exit code, stdout, seconds)]),
    all read on the clock `now`."""
    records = []
    start = now()
    for argv in commands:
        out = io.StringIO()
        t = now()
        try:
            with contextlib.redirect_stdout(out):
                code = main(argv)
        except SystemExit as exc:  # argparse rejects a command
            code = exc.code
        except Exception:
            code = traceback.format_exc()
        records.append((code, out.getvalue(), now() - t))
    return now() - start, records


def check_outputs(workload, commands, passes, lib) -> list[str]:
    """A status per command per pass: ok, inconclusive or failed.

    The first pass is re-verified by the workload's checks; every later pass
    must reproduce its exit codes and outputs byte for byte.
    """
    first = passes[0]
    statuses: list[str] = []
    for g in range(0, len(commands), workload.group):
        argvs = commands[g:g + workload.group]
        group = first[g:g + workload.group]
        bad = [(argv[0], code) for argv, (code, _, _) in zip(argvs, group) if code != 0]
        if bad:
            print(f"check: command exited with {bad}", file=sys.stderr)
            statuses += [FAILED] * len(group)
            continue
        try:
            statuses += workload.check(argvs, [out for _, out, _ in group], lib)
        except Exception:  # a malformed output fails its check, not the run
            print(f"check failed for {argvs[0][:2]}:\n{traceback.format_exc()}",
                  file=sys.stderr)
            statuses += [FAILED] * len(group)
    out = list(statuses)
    for later in passes[1:]:
        for i, (rec, ref) in enumerate(zip(later, first)):
            same = rec[:2] == ref[:2]  # exit code and stdout
            if not same:
                print(f"check: output of {commands[i][:2]} changed between passes",
                      file=sys.stderr)
            out.append(statuses[i] if same else FAILED)
    return out


def measure(workload, seed: int, seconds: int, trace: bool) -> dict:
    lib, commands = set_up(workload, seed)
    setups = time_setups(workload, seed)
    main = lib["cli"].main

    clock = RefClock()
    walls, raw_walls, passes = [], [], []
    clock.start()
    try:
        start = perf_counter()
        while True:
            raw = perf_counter()
            wall, records = run_list(main, commands, clock.now)
            raw_walls.append(perf_counter() - raw)
            walls.append(wall)
            passes.append(records)
            if len(walls) == 1:
                # read after one pass, so the figure does not depend on how
                # many repetitions a busy or idle host fits in --seconds
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if trace or perf_counter() - start + statistics.median(raw_walls) > seconds:
                break
        if trace:
            # spans read the same clock, so they leave out its ticks
            tracer = Tracer(clock.now)
            tracer.install(lib)
            try:  # the module attribute is now the wrapped entry point
                traced_wall, records = run_list(lib["cli"].main, commands, clock.now)
            finally:
                tracer.uninstall()
            passes.append(records)
    finally:
        clock.stop()

    statuses = check_outputs(workload, commands, passes, lib)
    attempted = len(statuses)
    failed = statuses.count(FAILED)
    inconclusive = statuses.count(INCONCLUSIVE)
    # each command's median over the repetitions, so a burst of host load
    # that hits one repetition does not decide the figure
    per_command = [statistics.median(ts) for ts in
                   zip(*([t for _, _, t in records] for records in passes[:len(walls)]))]
    summary = {
        "workload": workload.name, "seed": seed, "commands_per_list": len(commands),
        "lists_timed": len(walls), "commands_timed": len(walls) * len(commands),
        "wall_s": statistics.median(raw_walls),
        "clock_ticks": clock.ticks,
        "failed_ratio": failed / attempted,
        "inconclusive_ratio": inconclusive / attempted,
        "ok": statuses.count(OK),
    }
    if trace:
        overhead = traced_wall - statistics.median(walls)
        metrics = tracer.metrics(overhead)
        spans = SPANS_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
        tracer.write_spans(spans)
        summary["spans_file"] = str(spans.relative_to(ROOT))
    else:
        values = {
            "wall_ref_s": statistics.median(walls),
            "cmd_p50_ref_s": statistics.median(per_command),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "passed_ratio": 1 - failed / attempted,
            "conclusive_ratio": 1 - inconclusive / attempted,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
    for key, value in summary.items():
        print(f"# {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*sorted(WORKLOADS), "all"],
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)], check=False).returncode
                 for name in WORKLOADS]
        return max(codes)
    sys.path.insert(0, str(SRC))
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace))
    except ImportError as exc:
        print(f"error: cannot import polylie from {SRC}: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
