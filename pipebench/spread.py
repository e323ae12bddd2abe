#!/usr/bin/env python3
"""Run-to-run spread of the pipeline benchmark's end-to-end metrics.

    python3 pipebench/spread.py

Run from the repository root; it takes no arguments. It reads the
command, run length, workloads and bounds from BENCHMARK.json and makes
40 runs of every workload, in ten rounds. Round i (1..10) runs, in turn:

    A         seed i
    B         seed i again
    default   seed 1
    held-out  seed 7919

Interleaving makes the four series sample the same phases of the host's
speed. A and B are two sets of ten seeds, the way an acceptance check
collects them. The default and held-out series repeat one input, so
their spread is the host's alone.

Every run must pass its output checks, and every run of one seed must
print the same digest. For every series and end-to-end metric the script
prints the median and the spread, the interquartile range
(statistics.quantiles(values, n=4)) over the median, flagged at or above
a third of the metric's bound. For A and B it prints max(A/B, B/A) of
their medians, flagged above 1 + bound. The last line is the whole table
as one JSON object.
"""

import json
import statistics
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
ROUNDS = 10


def run_once(command, workload, seed, seconds, series):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output check failed: {result}")
    # "digest <workload> seed <n>: <hex> sim_rounds <r> over <j> jobs"
    tail = next(l for l in lines if l.startswith("digest ")).split(": ", 1)[1]
    values = " ".join(f"{k} {m['value']:.4f}" for k, m in result["metrics"].items())
    print(f"run {series:8} {workload} seed {seed}: {values} digest {tail}", flush=True)
    return result["metrics"], " ".join(tail.split()[:3])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    plan = [("A", lambda i: i), ("B", lambda i: i),
            ("default", lambda i: DEFAULT_SEED), ("held-out", lambda i: HELD_OUT_SEED)]
    table = {}
    for w in (w["name"] for w in bench["workloads"]):
        runs = {series: [] for series, _ in plan}
        digests = {}
        for i in range(1, ROUNDS + 1):
            for series, seed_of in plan:
                seed = seed_of(i)
                metrics, digest = run_once(bench["command"], w, seed,
                                           bench["run_seconds"], series)
                if digests.setdefault(seed, digest) != digest:
                    sys.exit(f"{w} seed {seed}: digest {digest} != {digests[seed]}")
                runs[series].append(metrics)
        table[w] = {}
        for name, bound in bounds.items():
            row = {}
            for series, _ in plan:
                values = [r[name]["value"] for r in runs[series]]
                q1, _, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                row[series] = {"median": med, "spread": round((q3 - q1) / med, 4)}
            a, b = row["A"]["median"], row["B"]["median"]
            row["A_vs_B"] = round(max(a / b, b / a), 4)
            table[w][name] = row
            cells = "  ".join(
                f"{s} {row[s]['median']:.4f} ({row[s]['spread']:.4f}"
                f"{'!' if row[s]['spread'] >= bound / 3 else ''})" for s, _ in plan)
            flag = "  <-- A/B above 1 + bound" if row["A_vs_B"] > 1 + bound else ""
            print(f"{w:18} {name:14} bound {bound}  {cells}  A/B {row['A_vs_B']:.4f}{flag}",
                  flush=True)
    print(json.dumps(table))


if __name__ == "__main__":
    main()
