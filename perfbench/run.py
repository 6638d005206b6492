#!/usr/bin/env python3
"""Benchmark for euclidmin: one workload, one seed, one JSON line of metrics.

    python3 perfbench/run.py --workload minima --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ./src and
nothing else. With --trace 0 the last line holds the end-to-end metrics,
with --trace 1 the per-layer metrics of a traced run (see README.md).
Run output goes to .perfbench_out/ under the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from speedclock import SpeedClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3       # set-ups per run: this process and two fresh ones
LAST_ROUND_START = 120  # seconds after start; no round begins later
OUT_DIR = ".perfbench_out"


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def locate_source() -> Path | None:
    src = Path.cwd() / "src"
    return src if (src / "euclidmin" / "__init__.py").is_file() else None


def import_program(src: Path):
    sys.path.insert(0, str(src))
    import euclidmin
    if Path(euclidmin.__file__).resolve().parent != (src / "euclidmin").resolve():
        raise ImportError(f"euclidmin imported from {euclidmin.__file__}")
    return euclidmin


def setup(name: str, seed: int, src: Path, workdir: Path, tracer=None):
    """Import the program, build the panel and the round-0 inputs; returns
    the set-up time in reference seconds and in wall seconds."""
    clock = SpeedClock()
    clock.probe(2)
    with clock.sampling():
        started = time.perf_counter()
        em = import_program(src)
        if tracer is not None:
            clock.quiet = tracer.paused
            tracer.install()
        wl = WORKLOADS[name]()
        problems = wl.setup(em, seed)
        ops = wl.round_ops(0, workdir)
        ended = time.perf_counter()
        if tracer is not None:
            tracer.uninstall()
    clock.quiet = contextlib.nullcontext
    clock.probe(2)
    return wl, ops, (clock.scaled(started, ended), ended - started), problems


def child(args: list) -> dict:
    """Run this script again in a fresh interpreter; parse its last line."""
    proc = subprocess.run([sys.executable, str(HERE / "run.py")] + args,
                          stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"child {args} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, pct) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


class RoundLog:
    def __init__(self):
        self.clock = SpeedClock()
        self.ops = []           # per round: the op list
        self.results = []       # per round: results
        self.failed = {}        # (round, op index) -> message
        self.latency = []       # op latencies, reference seconds
        self.durations = []     # per round: sum of latencies, reference seconds
        self.raw_durations = []  # per round: the same in wall seconds


def run_round(wl, r, ops, workdir, log: RoundLog):
    results, spans = [], []
    for i, op in enumerate(ops):
        started = log.clock.start()
        try:
            res = wl.run_op(op, workdir)
        except Exception as exc:  # an operation that raises counts as failed
            res = None
            log.failed[(r, i)] = f"raised {type(exc).__name__}: {exc}"
        spans.append((started, time.perf_counter()))
        results.append(res)
    log.clock.probe(2)
    lat = [log.clock.scaled(t0, t1) for t0, t1 in spans]
    log.ops.append(ops)
    log.results.append(results)
    log.latency.extend(lat)
    log.durations.append(sum(lat))
    log.raw_durations.append(sum(t1 - t0 for t0, t1 in spans))
    for i, message in wl.check_round(ops, results).items():
        log.failed.setdefault((r, i), message)


def run_rounds(wl, ops0, workdir, seconds, min_rounds, log, t_start):
    """Whole rounds while another one of mean length fits in `seconds`
    (reference seconds, so the round count does not follow the host's speed).
    In-process operations are sampled by the timer probe while they run."""
    r, ops = 0, ops0
    with (contextlib.nullcontext() if wl.spawns else log.clock.sampling()):
        while True:
            run_round(wl, r, ops, workdir, log)
            r += 1
            spent = sum(log.durations)
            if r >= min_rounds and (spent + spent / r > seconds
                                    or time.perf_counter() - t_start
                                    > LAST_ROUND_START):
                return
            ops = wl.round_ops(r, workdir)


def ok_ops(log: RoundLog, r: int):
    """(index, op, result) of the operations of round r that did not fail."""
    return [(i, op, res) for i, (op, res) in
            enumerate(zip(log.ops[r], log.results[r]))
            if (r, i) not in log.failed]


def replay_units(wl, log: RoundLog) -> list:
    """Evidence to replay, one list per timed unit: the evidence of every
    round, each round repeated as often as the workload says."""
    return [[dict(item, round=r, op=i) for i, op, res in ok_ops(log, r)
             for item in wl.evidence(op, res)]
            for r in range(len(log.ops))] * wl.replay_repeats


def replay(units, workdir: Path, trace: bool) -> dict:
    path = workdir / "evidence.json"
    out = workdir / "replay.json"
    path.write_text(json.dumps({"units": units}))
    cmd = [sys.executable, str(HERE / "replay.py"), str(path), str(out)]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdin=subprocess.DEVNULL, capture_output=True,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"replay failed: {proc.stderr[-2000:]}")
    return json.loads(out.read_text())


def evidence_bytes(wl, log: RoundLog) -> int:
    if wl.spawns:
        return wl.evidence_bytes(log.ops[0])
    return sum(len(json.dumps(item["evidence"], sort_keys=True,
                              separators=(",", ":")))
               for _, op, res in ok_ops(log, 0) for item in wl.evidence(op, res))


def cli_replay_seconds(log: RoundLog) -> float:
    """Sum of the verify-cert latencies of each round; median over rounds."""
    per_round, k = [], 0
    for ops in log.ops:
        per_round.append(sum(log.latency[k + i] for i, op in enumerate(ops)
                             if op.command == "verify-cert"))
        k += len(ops)
    return statistics.median(per_round)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--plain-rounds", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    src = locate_source()
    if src is None:
        return fail("no euclidmin source under ./src; run from a checkout root")
    out_root = Path.cwd() / OUT_DIR
    workdir = out_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, src, out_root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, src, out_root, workdir) -> int:
    name, seed = args.workload, args.seed
    wl_cls = WORKLOADS[name]
    if args.setup_only:
        _, _, (elapsed, raw), problems = setup(name, seed, src, workdir)
        print(json.dumps({"setup_s": elapsed, "raw_setup_s": raw,
                          "problems": problems}))
        return 0
    t_start = time.perf_counter()
    log = RoundLog()
    if args.plain_rounds:
        wl, ops0, _, _ = setup(name, seed, src, workdir)
        run_rounds(wl, ops0, workdir, 0, wl_cls.min_rounds, log, t_start)
        print(json.dumps({"wall_s": statistics.median(log.durations)}))
        return 0
    detail = {"workload": name, "seed": seed, "trace": args.trace}
    if args.trace:
        plain = child(["--workload", name, "--seed", str(seed), "--seconds",
                       "0", "--plain-rounds"])
        tracer = tracing.Tracer()
        wl, ops0, _, problems = setup(name, seed, src, workdir, tracer)
        trace_dir = workdir / "trace"
        trace_dir.mkdir()
        wl.trace_dir = trace_dir
        log.clock.quiet = tracer.paused
        tracer.install()
        try:
            run_rounds(wl, ops0, workdir, 0, wl_cls.min_rounds, log, t_start)
        finally:
            tracer.uninstall()
        snapshots = [tracer.snapshot()]
        snapshots += [json.loads(p.read_text())
                      for p in sorted(trace_dir.glob("*.json"))]
        if not wl.spawns:
            rep = replay(replay_units(wl, log)[:1], workdir, trace=True)
            snapshots.append(rep["trace"])
            record_replay_failures(rep, log)
        overhead = statistics.median(log.durations) / plain["wall_s"] - 1
        metrics = tracing.per_layer_metrics(tracing.merge(snapshots), overhead)
        detail.update(plain_wall_s=plain["wall_s"],
                      traced_wall_s=statistics.median(log.durations))
    else:
        samples = [child(["--workload", name, "--seed", str(seed),
                          "--seconds", "0", "--setup-only"])
                   for _ in range(SETUP_SAMPLES - 1)]
        samples = [(c["setup_s"], c["raw_setup_s"]) for c in samples]
        wl, ops0, setup_s, problems = setup(name, seed, src, workdir)
        samples.append(setup_s)
        run_rounds(wl, ops0, workdir, args.seconds, wl_cls.min_rounds, log,
                   t_start)
        if wl.spawns:
            rss_kb = max(wl.rss_kb)
            msg = wl.rerun_identical(log.ops[0])
            if msg:
                problems.append(msg)
            replay_s = cli_replay_seconds(log)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            rep = replay(replay_units(wl, log), workdir, trace=False)
            record_replay_failures(rep, log)
            replay_s = statistics.mean(rep["unit_s"])
        metrics = {
            "setup_s": (statistics.median(x for x, _ in samples), "s"),
            "wall_s": (statistics.median(log.durations), "s"),
            "op_p50_ms": (statistics.median(log.latency) * 1000, "ms"),
            "op_tail_ms": (percentile(log.latency, wl.tail_pct) * 1000, "ms"),
            "replay_s": (replay_s, "s"),
            "evidence_kb": (evidence_bytes(wl, log) / 1000, "KB"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        detail.update(setup_samples=samples, rounds=len(log.durations),
                      round_s=log.durations, raw_round_s=log.raw_durations,
                      probe_s=log.clock.durations)
    attempted = sum(len(ops) for ops in log.ops)
    for (r, i), message in sorted(log.failed.items())[:10]:
        print(f"perfbench: round {r} op {i} failed: {message}", file=sys.stderr)
    for message in problems:
        print(f"perfbench: {message}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": len(log.failed),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    detail.update(result=result, failures=[
        f"round {r} op {i}: {m}" for (r, i), m in sorted(log.failed.items())])
    (out_root / f"{name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


def record_replay_failures(rep: dict, log: RoundLog):
    for item in rep["failures"]:
        log.failed.setdefault((item["round"], item["op"]), item["message"])


if __name__ == "__main__":
    sys.exit(main())
