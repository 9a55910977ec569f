#!/usr/bin/env python3
"""Record per-layer ledger rows: one traced run per workload.

    python3 perfbench/ledger.py [--seed 1] [--seconds 10] [--out rows.json]

Runs every workload of BENCHMARK.json once with --trace 1 and prints a
markdown table with one column per workload. With --out, it also writes
the rows as JSON, which is the form perfbench/ledger/ keeps them in.
"""
import argparse
import json
import subprocess
import sys


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out")
    a = ap.parse_args()

    rows = {}
    for w in (w["name"] for w in bench["workloads"]):
        cmd = bench["command"] + ["--workload", w, "--seed", str(a.seed),
                                  "--seconds", str(a.seconds), "--trace", "1"]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        res = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not res["correct"]:
            print(f"{w}: traced run failed\n{out.stderr}", file=sys.stderr)
            return 1
        rows[w] = {k: v["value"] for k, v in res["metrics"].items()}

    names = list(rows)
    print("| metric | unit | " + " | ".join(names) + " |")
    print("|---|---|" + "---|" * len(names))
    for m in bench["per_layer"]:
        cells = [f"{rows[w][m['name']]:.4g}" for w in names]
        print(f"| {m['name']} | {m['unit']} | " + " | ".join(cells) + " |")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"seed": a.seed, "seconds": a.seconds, "rows": rows}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
