#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

    python3 perfbench/steady.py --runs 10 [--seconds 10] [--first-seed 1] [--out spread.json] [workload ...]

Runs each workload (all of BENCHMARK.json's by default) once per seed
through the same command the benchmark declares, then prints, for every
end-to-end metric, the median of the runs and the spread: the distance
between the first and third quartiles (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound. A spread at or above a
third of its bound is marked; setup_s is exempt from the spread rule.
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--out", help="write every run's metrics here as JSON")
    ap.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    a = ap.parse_args()

    raw = {}
    for w in a.workloads:
        raw[w] = []
        for seed in range(a.first_seed, a.first_seed + a.runs):
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(a.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            last = (out.stdout.strip().splitlines() or ["{}"])[-1]
            res = json.loads(last) if last.startswith("{") else {}
            if out.returncode != 0 or not res.get("correct") or res.get("failed"):
                print(f"{w} seed {seed}: run failed (exit {out.returncode})\n{out.stderr}", file=sys.stderr)
                return 1
            raw[w].append({k: v["value"] for k, v in res["metrics"].items()})
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in raw[w][-1].items()),
                  file=sys.stderr, flush=True)

    print("| workload | metric | median | spread | bound |")
    print("|---|---|---|---|---|")
    worst = 0.0
    for w, runs in raw.items():
        for m in bench["end_to_end"]:
            vals = [r[m["name"]] for r in runs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else " **wide**"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"| {w} | {m['name']} | {med:.6g} {m['unit']} | {spread:.4f}{flag} | {m['bound']} |")
    print(f"\nworst spread / bound (setup_s excluded): {worst:.3f}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"seconds": a.seconds, "seeds": [a.first_seed, a.first_seed + a.runs - 1],
                       "runs": raw}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
