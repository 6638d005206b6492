#!/usr/bin/env python3
"""Steadiness check: two sets of runs of the same code, taken one after the
other, compared metric by metric against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py [--seeds 10] [--workloads minima,...]

Set 0 takes seeds 1, 2, ..., set 1 seeds 1001, 1002, .... Prints, per
workload and end-to-end metric, each set's median and quartiles, the spread
(q3 - q1) / median, and whether the sets agree: every spread but that of
setup_s within the metric's bound, the two medians apart by no more than the
bound in either direction, and the same share of failed operations. Last,
the first seed of set 0 runs once more and must give the same evidence_kb.
Each run's result line is kept in .perfbench_out/steady-<set>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SETS = 2


def run_once(cmd, workload, seed, seconds) -> dict:
    proc = subprocess.run(cmd + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", "0"],
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)
    sets = []
    for k in range(SETS):
        runs = {w: [] for w in workloads}
        with open(out_dir / f"steady-{k}.jsonl", "w", encoding="utf-8") as fh:
            for w in workloads:
                for i in range(args.seeds):
                    seed = 1 + k * 1000 + i
                    started = time.perf_counter()
                    res = run_once(bench["command"], w, seed,
                                   bench["run_seconds"])
                    runs[w].append(res)
                    fh.write(json.dumps({
                        "set": k, "workload": w, "seed": seed, "result": res,
                        "run_wall_s": time.perf_counter() - started}) + "\n")
                    fh.flush()
        sets.append(runs)
    ok = True
    for w in workloads:
        print(f"\n== {w} ==")
        print(f"{'metric':14} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12}"
              f" {'spread':>7} {'bound':>6}")
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            for k, runs in enumerate(sets):
                vals = [r["metrics"][name]["value"] for r in runs[w]]
                med, q1, q3, spread = summary(vals)
                medians.append(med)
                flag = ""
                if name != "setup_s" and spread > bound:
                    flag, ok = "SPREAD", False
                print(f"{name:14} {k:>3} {med:12.5g} {q1:12.5g} {q3:12.5g}"
                      f" {spread:7.3f} {bound:6.2f} {flag}")
            for k in range(1, len(medians)):
                shift = medians[k] / medians[0] - 1
                agree = abs(shift) <= bound
                ok = ok and agree
                print(f"{'':14} set {k} against set 0: median moved "
                      f"{shift:+.3f} -> {'agree' if agree else 'DISAGREE'}")
        shares = {k: sum(r["failed"] for r in runs[w]) /
                  sum(r["attempted"] for r in runs[w])
                  for k, runs in enumerate(sets)}
        same = len(set(shares.values())) == 1
        ok = ok and same and all(r["correct"] for runs in sets
                                 for r in runs[w])
        print(f"failed share per set: {shares} -> "
              f"{'same' if same else 'DIFFERENT'}")
        first = sets[0][w][0]["metrics"]["evidence_kb"]["value"]
        again = run_once(bench["command"], w, 1, bench["run_seconds"])
        repeated = again["metrics"]["evidence_kb"]["value"] == first
        ok = ok and repeated
        print(f"evidence_kb of seed 1, run again: {first} then "
              f"{again['metrics']['evidence_kb']['value']} -> "
              f"{'identical' if repeated else 'DIFFERENT'}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
