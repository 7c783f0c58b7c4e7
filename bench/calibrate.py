#!/usr/bin/env python3
"""Calibrate the benchmark's bounds: run each workload once per seed and print,
for every end-to-end metric, the median and the spread the driver computes
(interquartile range over the median). CALIBRATION.md is its output.

    python3 bench/calibrate.py explore,dashboard,drilldown,personalize 11,12,13,14,15,16,17,18,19,20 [seconds]
"""
import json, statistics, subprocess, sys

workloads, seeds = sys.argv[1].split(","), sys.argv[2].split(",")
seconds = sys.argv[3] if len(sys.argv) > 3 else "20"
for w in workloads:
    rows = []
    for seed in seeds:
        p = subprocess.run(["bash", "bench/run.sh", "--workload", w, "--seed", seed, "--seconds", seconds, "--trace", "0"],
                           capture_output=True, text=True)
        if p.returncode != 0:
            sys.exit("%s seed %s: exit %d\n%s" % (w, seed, p.returncode, p.stderr))
        rows.append({k: v["value"] for k, v in json.loads(p.stdout.splitlines()[-1])["metrics"].items()})
    print("| %s | median | spread | min | max |\n|---|---|---|---|---|" % w)
    for name in rows[0]:
        vals = [r[name] for r in rows]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        med = statistics.median(vals)
        print("| `%s` | %.5g | %.3f | %.5g | %.5g |" % (name, med, (q3 - q1) / med, min(vals), max(vals)))
    print(flush=True)
