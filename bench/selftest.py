"""Self-test of the benchmark.

    python3 bench/selftest.py

Checks that the metric names the runner reports are the ones BENCHMARK.json
lists, and that two traced runs of one seed report identical counts and
count ratios for every layer on every workload at the default seed (times
are free to differ).  Exits 1 on any mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, END_TO_END
from tracing import PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    listed = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    if listed != list(END_TO_END):
        problems.append(f"end_to_end in BENCHMARK.json {listed} != runner {END_TO_END}")
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != PER_LAYER:
        problems.append("per_layer in BENCHMARK.json differs from tracing.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("workloads in BENCHMARK.json differ from workloads.WORKLOADS")

    deterministic = [name for name, unit, _ in PER_LAYER if unit in ("count", "ratio")]
    for workload in sorted(WORKLOADS):
        first, second = traced_run(workload, DEFAULT_SEED), traced_run(workload, DEFAULT_SEED)
        if list(first["metrics"]) != [name for name, _, _ in PER_LAYER]:
            problems.append(f"{workload}: traced run reports other metrics")
            continue
        differ = [(name, first["metrics"][name]["value"], second["metrics"][name]["value"])
                  for name in deterministic
                  if first["metrics"][name] != second["metrics"][name]]
        print(f"{workload}: {len(deterministic) - len(differ)}/{len(deterministic)} "
              f"counts identical across two traced runs of seed {DEFAULT_SEED}")
        problems += [f"{workload}: {name} {a} != {b}" for name, a, b in differ]

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else "selftest FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
