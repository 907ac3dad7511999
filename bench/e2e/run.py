#!/usr/bin/env python3
"""Builds and runs the Amalur end-to-end benchmark (Integrate -> Train -> Serve).

Usage, from the root of a checkout:

  python3 bench/e2e/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 bench/e2e/run.py --self-check

The first call configures and builds the benchmark package in this directory
(it compiles the library from ../../src) into .bench_build/e2e; later calls
only re-run the incremental build. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Traced runs write
<workload>-seed<n>.trace.json (Chrome Trace Event format) and
<workload>-seed<n>.layers.txt into .bench_build/e2e/out.

The program runs with AMALUR_CALIBRATION_FILE, AMALUR_OBSERVATION_LOG,
AMALUR_NUM_THREADS and AMALUR_BENCH_SMOKE cleared, so plans and sizes do not
depend on the caller's environment; the benchmark fixes the kernel thread
count itself. Exits with the benchmark's exit code (0 = outputs correct).
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e")
OUT_DIR = os.path.join(BUILD_DIR, "out")
BINARY = os.path.join(BUILD_DIR, "amalur_e2e_bench")
CLEARED_ENV = ("AMALUR_CALIBRATION_FILE", "AMALUR_OBSERVATION_LOG",
               "AMALUR_NUM_THREADS", "AMALUR_BENCH_SMOKE")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "amalur.h")):
        fail(f"library sources not found under {ROOT}/src; run from a full "
             "checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail(f"build step {' '.join(step)} failed: {error}")
        if result.returncode != 0:
            fail(f"build step {' '.join(step)} exited {result.returncode}")


def main():
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    command = [BINARY] + sys.argv[1:]
    if "--self-check" not in sys.argv[1:]:
        command += ["--out-dir", OUT_DIR]
    try:
        result = subprocess.run(command, cwd=ROOT, env=env,
                                timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
