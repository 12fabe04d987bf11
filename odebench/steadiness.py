#!/usr/bin/env python3
"""Steadiness record: run sets of seeds on every workload and report, per
end-to-end metric, each set's median and quartiles, the spread
(Q3 - Q1) / median, and how far the second set's median moved from the
first's, next to the bound in BENCHMARK.json.

Run from the root of the repository:

    python3 odebench/steadiness.py --sets 2 --seeds 10 --seconds 25

Set k uses seeds k*seeds+1 .. (k+1)*seeds. Runs go seed by seed, every
workload in turn, so drift in the host spreads over all workloads alike.
Raw results go to --out (JSON) when given.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    stamp = json.loads(lines[-2])["stamp"]
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{out.stderr[-2000:]}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    metrics["host.ref_kernel_us"] = float(stamp["host_ref_kernel_us"])
    return metrics


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--workloads", nargs="*", default=None)
    p.add_argument("--out", default=None)
    a = p.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}

    raw = {w: [[] for _ in range(a.sets)] for w in workloads}
    for s in range(a.sets):
        for seed in range(s * a.seeds + 1, (s + 1) * a.seeds + 1):
            for w in workloads:
                raw[w][s].append(run(bench["command"], w, seed, seconds))
                print(f"set {s} seed {seed} {w} done", file=sys.stderr, flush=True)
    if a.out:
        json.dump(raw, open(a.out, "w"), indent=1)

    for w in workloads:
        print(f"\n### {w}\n")
        head = "| metric | bound |"
        for s in range(a.sets):
            head += f" set {s}: median [Q1, Q3] | spread |"
        if a.sets > 1:
            head += " worse by |"
        print(head)
        print("|" + "---|" * (head.count("|") - 1))
        for name in list(bounds) + ["host.ref_kernel_us"]:
            row = f"| {name} | {bounds.get(name, '-')} |"
            meds = []
            for s in range(a.sets):
                med, q1, q3, sp = spread([r[name] for r in raw[w][s]])
                meds.append(med)
                row += f" {med:.4g} [{q1:.4g}, {q3:.4g}] | {sp:.3f} |"
            if a.sets > 1:
                shift = (meds[-1] - meds[0]) / meds[0]
                if better.get(name) == "higher":
                    shift = -shift
                row += f" {shift:+.3f} |"
            print(row)


if __name__ == "__main__":
    main()
