#!/usr/bin/env python3
"""Build and run the DUT-to-verdict benchmark.

Run from the root of the repository:

    python3 verdictbench/run.py --workload cold_verdict --seed 0 --seconds 20 --trace 0
    python3 verdictbench/run.py --selftest
    python3 verdictbench/run.py --workload scan_dense --write-reference

The first call configures and builds the benchmark (CMake, Release) into
$CARGO_TARGET_DIR/verdictbench, or .bench_build/verdictbench when that
variable is unset; later calls only rebuild what changed. Build output
goes to stderr. The benchmark's stdout is passed through unchanged: its
last line is the JSON result. The exit status is the benchmark's, or 1
when the build fails.
"""
import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cold_verdict", "transient_bus", "scan_dense")


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "verdictbench")


def build(target):
    """Configure once, then build `target`; return the binary's path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("verdictbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return None
    return os.path.join(out, target)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="store the verdicts of one run as the workload's reference")
    ap.add_argument("--selftest", action="store_true", help="run the helper self-test")
    args = ap.parse_args()

    if args.selftest:
        binary = build("verdictbench_selftest")
        return subprocess.run([binary]).returncode if binary else 1
    if not args.workload:
        ap.error("--workload is required")

    binary = build("verdictbench")
    if not binary:
        return 1
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(build_dir(), "out"),
           "--reference-dir", os.path.join(BENCH_DIR, "reference")]
    if args.write_reference:
        cmd.append("--write-reference")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
