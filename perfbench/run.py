#!/usr/bin/env python3
"""Repository benchmark: builds the program from this checkout and runs one
workload in its own process.

    python3 perfbench/run.py --workload flat-400 --seed 1 --seconds 10 --trace 0

--trace 0 runs the end-to-end command (tracing off) and prints the
end-to-end metrics; --trace 1 runs the traced command and prints the
per-layer metrics. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. --scalar builds the program
with MECSC_FORCE_SCALAR=ON into a separate build tree (SIMD sensitivity
run). See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Operating point of each workload: every inherited MECSC_* variable is
# dropped and these are set instead.
WORKLOAD_ENV = {
    "flat-400": {"MECSC_AGGREGATE": "off", "MECSC_SOLVER": "flow"},
    "gan-fig6": {"MECSC_AGGREGATE": "off", "MECSC_SOLVER": "flow"},
    "serve-30k": {"MECSC_AGGREGATE": "on", "MECSC_SOLVER": "lagrangian"},
}

RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build(target, scalar):
    """Configures (once) and builds `target` inside this checkout."""
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench-scalar" if scalar else "perfbench")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    makefile = os.path.join(build_dir, "Makefile")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [HERE]:
            log("build tree belongs to another source tree; starting over")
            shutil.rmtree(build_dir)
    if not os.path.exists(makefile):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
               "-DMECSC_FORCE_SCALAR=" + ("ON" if scalar else "OFF")]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", build_dir, "--target", target, "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    binary = os.path.join(build_dir, target)
    return binary if os.path.exists(binary) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_ENV))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scalar", action="store_true",
                        help="build with MECSC_FORCE_SCALAR=ON (sensitivity run)")
    args = parser.parse_args()

    target = "perfbench_traced" if args.trace else "perfbench_e2e"
    binary = build(target, args.scalar)
    if binary is None:
        log("build failed; no result")
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("MECSC_")}
    env.update(WORKLOAD_ENV[args.workload])
    env["MECSC_TELEMETRY"] = "summary" if args.trace else "off"
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s; no result")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        log(f"{args.workload} exited with {proc.returncode}; no result")
        return 1
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("malformed result line:", lines[-1])
        return 1
    for line in lines:
        print(line)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
