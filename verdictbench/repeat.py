#!/usr/bin/env python3
"""Run one benchmark workload N times and print each metric's spread.

    python3 verdictbench/repeat.py --workload transient_bus --runs 10
    python3 verdictbench/repeat.py --workload scan_dense --runs 5 --sets 2

Run i uses seed --seed-start + i. For every metric of the last JSON line
of each run this prints the median, the first and third quartile
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median,
next to the metric's bound in BENCHMARK.json when that file is present.
Runs last run_seconds of BENCHMARK.json unless --seconds is given.
With --sets 2 the N runs are made twice over the same seeds and the
second median's change against the first is printed as well, in the
metric's worse direction, so the two sets can be checked against the
bounds. Exits 1 when a run fails or reports correct == false.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(BENCH_DIR, "run.py")


def load_benchmark():
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def run_once(args, seed):
    cmd = [sys.executable, RUN, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"run with seed {seed} reported correct == false")
    return result


def run_set(args, label):
    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.seed_start + i
        result = run_once(args, seed)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"  {label} run {i + 1}/{args.runs} seed {seed}: " +
              ", ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()),
              flush=True)
    return values, units


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-start", type=int, default=0)
    ap.add_argument("--seconds", type=float,
                    help="run length (default: run_seconds of BENCHMARK.json, else 20)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()

    bench = load_benchmark()
    spec = {m["name"]: m for m in bench.get("end_to_end", []) + bench.get("per_layer", [])}
    if args.seconds is None:
        args.seconds = bench.get("run_seconds", 20)
    sets = [run_set(args, f"set {k + 1}") for k in range(args.sets)]
    units = sets[0][1]
    print(f"\n{args.workload}: {args.runs} runs per set, seeds "
          f"{args.seed_start}..{args.seed_start + args.runs - 1}, {args.seconds:g} s each")
    header = (f"  {'metric':<26} {'unit':<9} {'set':>3} {'median':>13} {'q1':>13} "
              f"{'q3':>13} {'spread':>8} {'bound':>6}")
    if args.sets == 2:
        header += f" {'worse':>8}"
    print(header)
    for name in sets[0][0]:
        bound = spec.get(name, {}).get("bound")
        first_median = None
        for k, (values, _) in enumerate(sets):
            med, q1, q3, spread = summarize(values[name])
            row = (f"  {name:<26} {units[name]:<9} {k + 1:>3} {med:>13.6g} {q1:>13.6g} "
                   f"{q3:>13.6g} {spread:>8.4f} {bound if bound is not None else '-':>6}")
            if k == 0:
                first_median = med
            elif first_median:
                lower = spec.get(name, {}).get("better", "lower") == "lower"
                worse = (med - first_median) / first_median * (1 if lower else -1)
                row += f" {worse:>8.4f}"
            print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
