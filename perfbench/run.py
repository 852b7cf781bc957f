#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S]
                             [--trace 0|1] [--width W]

Builds the benchmark program and the rbvc libraries from ../src (Release,
into .bench_build/perfbench at the checkout root; later runs rebuild only
what changed), then runs one workload. The program's output passes through:
human-readable lines starting with '#', then one JSON line with the keys
correct, attempted, failed and metrics. The exit code is the program's (1 when
the correctness gate trips). `--workload all` runs the three declared
workloads in turn and exits non-zero if any run did. Without ../src the
build fails and the script exits non-zero without printing a result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
BINARY = BUILD_DIR / "rbvc_perfbench"
WORKLOADS = ("cluster-tcp", "sweep-l2-f2", "sweep-linf-f2")
# Runs, but is not declared in BENCHMARK.json (see workloads.json).
UNDECLARED = ("cluster-bus",)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run(cmd, timeout_s, capture):
    """Runs cmd in its own process group; on timeout kills the whole group
    and waits for it. Returns (exit code, captured output or None)."""
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else None,
        stderr=subprocess.STDOUT if capture else None,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return proc.returncode, out


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: rbvc sources (src/) not found next to perfbench/")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "rbvc_perfbench", "-j", jobs])
    for cmd in steps:
        code, out = run(cmd, BUILD_TIMEOUT_S, capture=True)
        if code != 0:
            sys.stderr.write(out.decode(errors="replace"))
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")


def main():
    # SIGTERM unwinds through run(), which then kills the child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + UNDECLARED + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--width", type=int, default=0,
                    help="sweep pool width (default: min(nproc, 4))")
    args = ap.parse_args()

    build()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    worst = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--width", str(args.width), "--out-dir", str(OUT_DIR)]
        sys.stdout.flush()
        code, _ = run(cmd, RUN_TIMEOUT_S, capture=False)
        worst = worst or code
    return worst


if __name__ == "__main__":
    sys.exit(main())
