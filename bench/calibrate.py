#!/usr/bin/env python3
"""Runs the benchmark repeatedly and reports each metric's spread.

Run from the repository root:

    python3 bench/calibrate.py --seeds 1-10 --trace 0 --out bench/results/run.json

Every (seed, workload) pair runs once through bench/run.sh with the
window from BENCHMARK.json, seeds in the outer loop so a slow spell on
the machine spreads over all workloads. For each workload and metric it
prints the median, the quartiles (statistics.quantiles, n=4) and the
interquartile spread as a share of the median, next to the metric's
bound. --out keeps every result line, with the run's wall time,
set-up and build included, as "elapsed_s".
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="seed list, e.g. 1-10 or 1,5,9")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="", help="write the raw results here as JSON")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    defs = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {d["name"]: d.get("bound") for d in defs}

    raw = {w: [] for w in names}
    for seed in seeds(args.seeds):
        for w in names:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            t0 = time.monotonic()
            p = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.monotonic() - t0
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                sys.exit(f"{w} seed {seed}: exit {p.returncode}\n{p.stderr}")
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                sys.exit(f"{w} seed {seed}: incorrect result {lines[-1]}\n{p.stderr}")
            res["seed"], res["elapsed_s"] = seed, elapsed
            raw[w].append(res)
            print(f"{w} seed {seed}: ok, {res['attempted']} attempted, {elapsed:.1f} s",
                  file=sys.stderr, flush=True)

    summary = {}
    for w in names:
        summary[w] = {}
        for d in defs:
            vals = [r["metrics"][d["name"]]["value"] for r in raw[w]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][d["name"]] = {"median": med, "min": min(vals), "max": max(vals),
                                     "q1": q1, "q3": q3, "spread": spread}
            b = bounds[d["name"]]
            flag = "" if b is None else ("  OK" if spread < b / 3 else "  WIDE" if spread < b else "  OVER")
            bound = "" if b is None else f" bound {b:.2f}"
            print(f"{w:11s} {d['name']:28s} median {med:12.6g} {d['unit']:6s} "
                  f"[{min(vals):.6g}, {max(vals):.6g}] spread {spread:6.3f}{bound}{flag}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"run_seconds": bench["run_seconds"], "trace": args.trace,
                       "summary": summary, "runs": raw}, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
