#!/usr/bin/env python3
"""Replay evidence in a process apart from the one that produced it.

    python3 perfbench/replay.py EVIDENCE.json OUT.json [--trace]

EVIDENCE.json holds {"units": [[item, ...], ...]}; each item names its case
(field, S, ideal) and carries a witness or a covering certificate as
euclidmin's canonical JSON. The replay follows `verify-cert`: a certificate
goes through `verify_certificate`, a witness through a fresh `m_exact` plus
the check that its shift attains the value. Contexts are built before the
clock starts; each unit is timed on its own.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402
from speedclock import SpeedClock  # noqa: E402
from workloads import Built, Case  # noqa: E402


def replay_item(em, built: Built, evidence: dict) -> str | None:
    from euclidmin.cli import certificate_from_json
    if evidence["kind"] == "covering":
        try:
            em.verify_certificate(built.ctx, certificate_from_json(evidence))
        except AssertionError as exc:
            return f"certificate rejected: {exc}"
        return None
    field = built.field
    xi = field.element([Fraction(c) for c in evidence["xi"]])
    shift = field.element([Fraction(c) for c in evidence["shift"]])
    claimed = Fraction(evidence["value"])
    again = em.m_exact(built.ideal, built.sconfig, xi)
    if again.value != claimed:
        return f"witness value {claimed}, recomputed {again.value}"
    if em.s_norm(xi - shift, built.sconfig) / built.ctx.s_norm_a != claimed:
        return "recorded shift does not attain the value"
    return None


def main(argv) -> int:
    src = Path.cwd() / "src"
    if not (src / "euclidmin" / "__init__.py").is_file():
        print("replay: no euclidmin source under ./src", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import euclidmin as em

    units = json.loads(Path(argv[1]).read_text())["units"]
    built = {}
    for unit in units:
        for item in unit:
            key = json.dumps(item["case"], sort_keys=True)
            if key not in built:
                built[key] = Built(em, Case.from_spec(item["case"]))
    tracer = tracing.Tracer().install() if "--trace" in argv else None
    clock = SpeedClock()
    if tracer is not None:
        clock.quiet = tracer.paused
    spans, failures = [], []
    with clock.sampling():
        for unit in units:
            spans.append([])
            for item in unit:
                b = built[json.dumps(item["case"], sort_keys=True)]
                started = clock.start()
                try:
                    message = replay_item(em, b, item["evidence"])
                except Exception as exc:  # a replay that raises is a failure
                    message = f"replay raised {type(exc).__name__}: {exc}"
                spans[-1].append((started, time.perf_counter()))
                if message:
                    failures.append({"round": item["round"], "op": item["op"],
                                     "message": message})
    clock.probe(2)
    out = {"unit_s": [sum(clock.scaled(*s) for s in unit) for unit in spans],
           "raw_unit_s": [sum(t1 - t0 for t0, t1 in unit) for unit in spans],
           "failures": failures}
    if tracer is not None:
        tracer.uninstall()
        out["trace"] = tracer.snapshot()
    Path(argv[2]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
