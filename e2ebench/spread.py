#!/usr/bin/env python3
"""Runs the end-to-end benchmark over several seeds and reports, for each
end-to-end metric, the median and the spread between the first and third
quartile as a share of the median, next to the metric's bound in
BENCHMARK.json.

Run from the repository root:

    python3 e2ebench/spread.py --workloads chat,mesh --seeds 1-10 --out runs.json
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--out", help="file to write every run's result to")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    runs = {}
    ok = True
    for wl in args.workloads.split(","):
        runs[wl] = []
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            p = subprocess.run(cmd, capture_output=True, text=True)
            last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else ""
            if p.returncode != 0 or not last.startswith("{"):
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stdout[-2000:]}\n{p.stderr[-2000:]}")
                ok = False
                continue
            res = json.loads(last)
            runs[wl].append(res)
            print(f"{wl} seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items())
                             if args.trace == "0"), flush=True)
        for name in sorted(bounds if args.trace == "0" else []):
            vals = [r["metrics"][name]["value"] for r in runs[wl] if name in r["metrics"]]
            if len(vals) < 4:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = "ok" if spread < bound / 3 else ("WITHIN" if spread <= bound else "WIDE")
            print(f"  {wl:10s} {name:22s} median={statistics.median(vals):12.4f} spread={spread:6.3f} "
                  f"bound={bound:.2f} {flag}")
    if args.out:
        json.dump(runs, open(args.out, "w"), indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
