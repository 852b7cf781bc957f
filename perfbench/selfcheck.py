#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/selfcheck.py

1. Every per-layer metric listed under "exact_on_sweeps" in workloads.json
   repeats exactly on both sweeps: across two traced runs of one seed, and
   between pool width 1 and the default width.
2. The metric names and units rbvc_perfbench prints match BENCHMARK.json (end
   to end on an untraced run, per layer on the traced runs), and every run
   passes its correctness gate.

Exits 0 when every check passes, 1 otherwise. Takes about a minute on 4
cores (the width-1 runs dominate).
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload, trace, seconds, width=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace",
           str(trace), "--width", str(width)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"selfcheck: {' '.join(cmd)} exited {p.returncode}")
    return json.loads(lines[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    exact = json.loads((HERE / "workloads.json").read_text())["exact_on_sweeps"]
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def check_result(label, trace, result):
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared[trace]:
            failures.append(f"{label}: metrics/units differ from BENCHMARK.json")
        if not result["correct"] or result["failed"] != 0:
            failures.append(f"{label}: correctness gate tripped")

    for workload in ("sweep-l2-f2", "sweep-linf-f2"):
        runs = {
            "width N, run 1": run(workload, 1, 1),
            "width N, run 2": run(workload, 1, 1),
            "width 1": run(workload, 1, 1, width=1),
        }
        for label, result in runs.items():
            check_result(f"{workload} {label}", 1, result)
        ref = runs["width N, run 1"]["metrics"]
        for name in exact:
            values = {label: r["metrics"][name]["value"] for label, r in runs.items()}
            same = len(set(values.values())) == 1
            print(f"{'ok  ' if same else 'FAIL'} {workload} {name} = "
                  f"{ref[name]['value']!r}" + ("" if same else f" {values}"))
            if not same:
                failures.append(f"{workload}: {name} is not exact: {values}")

    check_result("cluster-tcp untraced", 0, run("cluster-tcp", 0, 2))

    for f in failures:
        print("FAIL", f)
    print("selfcheck:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
