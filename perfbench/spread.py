#!/usr/bin/env python3
"""Steadiness check: runs workloads over several seeds and prints, per
end-to-end metric, the median and the spread (Q3 - Q1) / median of the
values, with the quartiles from statistics.quantiles(values, n=4).

    python3 perfbench/spread.py --runs 10 [--workloads score_bulk ...]

Each spread should stay well below the metric's bound in BENCHMARK.json
(setup_s excepted). Every run's host line is kept with its numbers in
--out (JSON lines), so a wide spread can be traced to host steal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    host = next((l for l in lines if l.startswith("host:")), "")
    return json.loads(lines[-1]), host


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                      "spread.jsonl"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "a") as log:
        for workload in args.workloads:
            values = {name: [] for name in bounds}
            for i in range(args.runs):
                seed = args.first_seed + i
                result, host = run_once(workload, seed, args.seconds)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {seed}: answer check failed")
                for name in bounds:
                    values[name].append(result["metrics"][name]["value"])
                log.write(json.dumps({"workload": workload, "seed": seed,
                                      "host": host, "result": result}) + "\n")
                log.flush()
                print(f"{workload} seed={seed} {host}", file=sys.stderr)
            print(f"\n{workload} ({args.runs} runs of {args.seconds} s)")
            print(f"  {'metric':<18} {'median':>14} {'spread':>8} {'bound':>6}  ok")
            for name, vals in values.items():
                q1, _, q3 = statistics.quantiles(vals, n=4)
                med = statistics.median(vals)
                spread = (q3 - q1) / med if med else float("inf")
                ok = "setup" if name == "setup_s" else (
                    "yes" if spread < bounds[name] / 3 else "NO")
                print(f"  {name:<18} {med:>14.6g} {spread:>8.4f} "
                      f"{bounds[name]:>6}  {ok}")


if __name__ == "__main__":
    main()
