#!/usr/bin/env python3
"""Run every workload with several seeds and record how steady each
end-to-end metric is.

Usage, from the root of the repository:

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads audit-paper,serve-mixed] [--out FILE]

Each run is `python3 perfbench/run.py --workload W --seed S --seconds
<run_seconds> --trace 0` with seeds first-seed, first-seed+1, ... For
every workload and metric it reports the median, the first and third
quartiles (statistics.quantiles, n=4) and the spread (q3 - q1) / median,
flagged when it exceeds the metric's bound in BENCHMARK.json (or a third
of it). With --out, the table is also written to FILE as Markdown.
With --raw, every sample is written to a JSON file; given such a file
from an earlier set as --baseline, each median is also compared with the
earlier one, and a change for the worse beyond the bound is flagged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}\n"
                           f"{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect result\n"
                           f"{out.stderr[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out")
    ap.add_argument("--raw")
    ap.add_argument("--baseline")
    args = ap.parse_args()
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)

    metrics = bench["end_to_end"]
    rows = []
    raw = {}
    for workload in args.workloads.split(","):
        samples = raw[workload] = {m["name"]: [] for m in metrics}
        for i in range(args.runs):
            values = run_once(workload, args.first_seed + i,
                              bench["run_seconds"])
            for name, series in samples.items():
                series.append(values[name])
            print(f"{workload} seed {args.first_seed + i}: " +
                  ", ".join(f"{k} {v:.6g}" for k, v in values.items()),
                  flush=True)
        for m in metrics:
            values = samples[m["name"]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ("OVER BOUND" if spread > m["bound"] else
                    "over 1/3 bound" if spread > m["bound"] / 3 else "")
            change = ""
            earlier = baseline.get(workload, {}).get(m["name"])
            if earlier:
                before = statistics.median(earlier)
                worse = (med - before) / before
                if m["better"] == "higher":
                    worse = -worse
                change = f"{worse:+.4f}"
                if worse > m["bound"]:
                    flag += " WORSE THAN BASELINE"
            rows.append((workload, m["name"], m["unit"], med, q1, q3,
                         spread, m["bound"], change, flag))

    header = ("| workload | metric | unit | median | q1 | q3 | spread | "
              "bound | worse vs baseline | flag |\n"
              "|---|---|---|---|---|---|---|---|---|---|\n")
    table = header + "".join(
        f"| {w} | {n} | {u} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
        f"{sp:.4f} | {b} | {ch} | {fl} |\n"
        for w, n, u, med, q1, q3, sp, b, ch, fl in rows)
    print(table)
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(raw, f, indent=1)
    if args.out:
        with open(args.out, "w") as f:
            f.write(f"Seeds {args.first_seed}..{args.first_seed + args.runs - 1}, "
                    f"{args.runs} runs per workload, run_seconds "
                    f"{bench['run_seconds']}.\n\n" + table)


if __name__ == "__main__":
    main()
