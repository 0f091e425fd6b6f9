#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

Run from the root of the checkout:

    python3 perfbench/record.py --seeds 1-10 --out perfbench/baseline/baseline.json

For every workload in BENCHMARK.json it runs the benchmark's
command once per seed, untraced, then once traced with the first seed, and
reports per metric the median and the spread: the distance between the first
and third quartile (statistics.quantiles, n=4) as a share of the median. An
end-to-end metric, setup_s included, whose spread is not below a third of its
bound is flagged.
With --out the runs and the summary are written as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    report = [line for line in lines[:-1] if line.startswith("#")]
    return {"seed": seed, "trace": trace, "elapsed_s": round(elapsed, 1),
            "report": report, "result": result}


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread,
            "min": min(values), "max": max(values)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default="")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = parse_seeds(opts.seeds)

    record = {"command": bench["command"], "run_seconds": bench["run_seconds"],
              "seeds": seeds, "workloads": {}}
    steady = True
    for w in workloads:
        runs = [run_once(bench["command"], w, s, bench["run_seconds"], 0) for s in seeds]
        failed = [r["seed"] for r in runs if not r["result"]["correct"]]
        summary = {}
        print(f"{w}: {len(runs)} runs, incorrect seeds {failed or 'none'}")
        for name in runs[0]["result"]["metrics"]:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            s = summarise(vals)
            s["unit"] = runs[0]["result"]["metrics"][name]["unit"]
            summary[name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] >= bound / 3:
                flag, steady = "  <-- spread not below bound/3", False
            print(f"  {name:22s} median {s['median']:14.4f} {s['unit']:6s} "
                  f"spread {100 * s['spread']:6.2f}%  (bound {bound})" + flag)
        traced = run_once(bench["command"], w, seeds[0], bench["run_seconds"], 1)
        entry = {"runs": runs, "summary": summary, "incorrect_seeds": failed, "traced": traced}
        print(f"  traced (seed {seeds[0]}):")
        for name, m in traced["result"]["metrics"].items():
            if m["value"] != 0:
                print(f"    {name:38s} {m['value']:14.4f} {m['unit']}")
        record["workloads"][w] = entry
        if failed:
            steady = False
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
