#!/usr/bin/env python3
"""Builds lncl_benchmark if needed and runs one workload.

Run from the repository root:

    python3 lncl_benchmark/run.py --workload ner_fit --seed 1 --seconds 20 --trace 0

The first run configures and builds the library under src/ and the benchmark
into .bench_build/ (build output goes to stderr); later runs only check that
the build is current. The benchmark's report goes to stdout and its last line
is the JSON result. With --trace 1 the run reports the per-layer metrics and
writes its trace under .bench_build/trace/. Exits non-zero, without a result
line, when the sources are missing or the build or run fails.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent
ROOT = PACKAGE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "lncl_benchmark"
# A first run (configure + build + run) must end within 900 s, a later one
# within 180 s.
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def parse_args():
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def run(command, timeout, **kwargs):
    """Runs `command` in its own process group; on timeout kills the whole
    group (cmake's compilers too) and waits for it. Returns the exit code,
    or None on timeout."""
    with subprocess.Popen(command, start_new_session=True, **kwargs) as proc:
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return None


def build():
    """Configures (once) and builds the benchmark; False on failure."""
    for needed in (ROOT / "CMakeLists.txt", ROOT / "src" / "CMakeLists.txt"):
        if not needed.is_file():
            print(f"run.py: missing {needed.relative_to(ROOT)}; the benchmark "
                  "builds the library from the repository sources",
                  file=sys.stderr)
            return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(PACKAGE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "lncl_benchmark",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        code = run(step, max(1.0, deadline - time.monotonic()),
                   stdout=sys.stderr, stderr=sys.stderr)
        if code != 0:
            why = "timed out" if code is None else "failed"
            print(f"run.py: {why}: {' '.join(step)}", file=sys.stderr)
            return False
    return True


def main():
    args = parse_args()
    if not build():
        return 2
    command = [str(BINARY), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds:g}"]
    if args.trace:
        command.append(f"--trace={BUILD / 'trace'}")
    sys.stdout.flush()
    code = run(command, RUN_TIMEOUT_S, cwd=ROOT)
    if code is None:
        print(f"run.py: {args.workload} ran longer than {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
