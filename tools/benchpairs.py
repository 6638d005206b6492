#!/usr/bin/env python3
"""Run the benchmark in pairs, parent against change, and write BENCH_<n>.json.

    python3 tools/benchpairs.py --parent DIR --change DIR --workload minima \\
        --seeds 301-310 --out BENCH_17.json --title "what the change does"

DIR is the root of a checkout: the parent commit (a `git clone` or
`git archive` of it) and the change. For each seed, both sides run
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
from their own root, one after the other, T the `run_seconds` of the
change's BENCHMARK.json; the parent runs first on the first seed, the
change on the second, and so on. The last line of each run's output gives
the values, and the run's detail file under .perfbench_out/ gives its
number of rounds.

The output has the shape of BENCH_12.json: per workload the seeds, the side
that ran first, attempted and failed operation counts, the correctness flag
and the rounds of each run, and per metric each side's values in seed
order, their median and inclusive quartiles, and change_lower_in, the
seeds on which the change read lower. An existing output file keeps its
other workloads, so one file can hold several workloads' pairs. Nothing
under perfbench/ is written except the benchmark's own .perfbench_out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
METHOD = (
    "one run per seed and side, parent commit and change alternating: "
    "first_side names the side that ran first for each seed; the last line "
    "of each run's output gives the values; times are reference seconds; "
    "quartiles are inclusive over the runs; values lists each run in seed "
    "order; change_lower_in counts the seeds where the change read lower")


def parse_seeds(text):
    """'301-310' or '5,7,9' as a list of integers."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def machine():
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "os": platform.system()}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, stdin=subprocess.DEVNULL,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} failed:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail = root / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
    result["rounds"] = json.loads(detail.read_text()).get("rounds")
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(med, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "values": [round(v, 4) for v in values]}


def pairs(roots, workload, seeds, seconds, log=sys.stderr):
    runs = {side: [] for side in SIDES}
    first = []
    for k, seed in enumerate(seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        first.append(order[0])
        got = {}
        for side in order:
            got[side] = run_once(roots[side], workload, seed, seconds)
        for side in SIDES:
            runs[side].append(got[side])
        tail = {side: got[side]["metrics"] for side in SIDES}
        print(f"{workload} seed {seed}: " + "; ".join(
            f"{side} " + ", ".join(f"{name} {m['value']:.4g}"
                                   for name, m in tail[side].items())
            + f", rounds {got[side]['rounds']}" for side in SIDES),
            file=log, flush=True)
    doc = {"seeds": seeds, "first_side": first}
    for key in ("attempted", "failed", "correct", "rounds"):
        doc[key] = {side: [r[key] for r in runs[side]] for side in SIDES}
    metrics = {}
    for name, m in runs["parent"][0]["metrics"].items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in SIDES}
        lower = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
        metrics[name] = {"unit": m["unit"],
                         **{side: summary(vals[side]) for side in SIDES},
                         "change_lower_in": f"{lower}/{len(seeds)}"}
    doc["metrics"] = metrics
    return doc


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds)
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--title", default="",
                    help="one line saying what the change does")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seconds = json.loads(
        (roots["change"] / "BENCHMARK.json").read_text())["run_seconds"]
    doc = (json.loads(args.out.read_text()) if args.out.exists()
           else {"change": args.title})
    if args.title:
        doc["change"] = args.title
    doc["machine"] = machine()
    doc["command"] = (f"python3 perfbench/run.py --workload W --seed S "
                      f"--seconds {seconds:g} --trace 0")
    doc["method"] = METHOD
    doc.setdefault("workloads", {})[args.workload] = pairs(
        roots, args.workload, args.seeds, seconds)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
