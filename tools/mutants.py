#!/usr/bin/env python3
"""Plant one fault at a time in the soundness checks, and record which
tier-1 test catches it.

    python3 tools/mutants.py                  # every mutant of the table
    python3 tools/mutants.py NAME [NAME ...]  # the named mutants
    python3 tools/mutants.py --list           # names and source lines

Each entry of MUTANTS is (name, source text, replacement, argument). The
text is looked up in every module of src/euclidmin and must occur there
exactly once, so one table runs on any checkout that keeps those lines,
whichever module holds them. A mutant is applied to a copy of src/, tests/
and perfbench/ in a temporary directory, never to the checkout. Tier-1 runs
on the copy with -x, and the first failing test is recorded as the killer;
WORKERS mutants run at a time.
An entry with an argument claims that the mutant is equivalent: no input
can tell it from the original, so it is expected to survive.

Prints one line per mutant, then a JSON summary. Exits 1 when a mutant
without an argument survives, when one with an argument is killed, or when
a text is not found exactly once.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "euclidmin"
COPIED = ("src", "tests", "perfbench")
WORKERS = 2   # the whole table takes about 4 minutes on 2 cores

MUTANTS = (
    # -- the S-unit basis (units.verify_s_unit_basis and its helpers)
    ("unit-support",
     "if support != ideal_from_gens([u]):", "if False:", None),
    ("unit-s-norm",
     "if s_norm(u, sconfig) != 1:", "if False:",
     "a generator that passes the support check is an S-unit, so the "
     "product formula makes its S-norm exactly 1: the check can only fire "
     "when the support check is wrong"),
    ("unit-too-few",
     "if len(gens) < need:", "if False:", None),
    ("unit-too-many",
     "if len(gens) > need:", "if len(gens) > need + 1:", None),
    ("log-rank-zero",
     "if not lo <= 0 <= hi:", "if True:", None),
    ("shrinking-small",
     "            if iv.hi < 1:", "            if iv.lo < 1:", None),
    # -- fundamental units (units.fundamental_solution, fundamental_unit)
    ("unit-cf-stop",
     "in (1, -1):", "== 1:", None),
    ("unit-cf-trace",
     "return 2 * p - s * q, q", "return 2 * p + s * q, q", None),
    ("unit-norm",
     "if abs(unit.norm()) != 1:", "if False:",
     "the continued fraction stops only where N(p - q*omega) = +-1, and "
     "the unit is that element's conjugate, so the check can only fire "
     "when the construction of sqrt(D) from theta is wrong"),
    # -- grid rows (fields.grid_row, NumberField.basis_row_bounds)
    ("grid-row-floor",
     "out.append((lo // den, -(-hi // den)))",
     "out.append((-(-lo // den), -(-hi // den)))", None),
    ("grid-row-ceiling",
     "out.append((lo // den, -(-hi // den)))",
     "out.append((lo // den, hi // den))", None),
    ("basis-rows-floor",
     "floor_scaled(iv.lo, bits)", "ceil_scaled(iv.lo, bits)", None),
    ("basis-rows-ceiling",
     "ceil_scaled(iv.hi, bits)", "floor_scaled(iv.hi, bits)", None),
    # -- ideal lattices (hnf.hnf_columns, fields, forms.form_from_ideal)
    ("hnf-pivot-sign",
     "        if cj[j] < 0:", "        if False:", None),
    ("hnf-reduce",
     "            q = cj[i] // ci[i]", "            q = 0", None),
    ("dual-den-sign",
     "hnf_columns(cols), abs(d))", "hnf_columns(cols), d)", None),
    ("contains-divisible",
     "return not any([c % d for c in w])", "return True", None),
    ("form-span-integral",
     "if any([c % d1 for c in w1] + [c % d2 for c in w2]) or",
     "if False or", None),
    ("form-span-det",
     "abs(det) != d1 * d2:", "False:", None),
    # -- report replay (cli)
    ("config-units",
     '("S", {}), ("units", None)):', '("S", {})):', None),
    ("content-hash",
     'if saved.get("content_hash") != content_hash(saved):', "if False:",
     None),
    # -- capped valuations (places.valuation)
    ("valuation-cap-steps",
     "None if cap is None else cap + v_den)",
     "None if cap is None else cap)", None),
    # -- the one bound evaluator (covering._finite_factor, gamma_in_s_ideal)
    ("finite-factor-cap",
     "k if zero else valuation(diff, v, k))",
     "k if zero else valuation(diff, v, k + 1))", None),
    ("s-ideal-cap",
     "lattice = ctx.s_lattice([valuation(gamma, v, 0)",
     "lattice = ctx.s_lattice([valuation(gamma, v)",
     "the a-part is prime to S, so gamma lies in the a-part times "
     "prod P_v^e_v exactly when it meets the a-part's conditions outside S "
     "and v(gamma) >= e_v at each finite v of S: every e_v <= v(gamma) "
     "gives the same answer, and the cap 0 only keeps the lattice's "
     "exponents at or below 0"),
    # -- covering certificates (covering.verify_certificate)
    ("cert-threshold",
     "if cert.threshold > t:", "if False:", None),
    ("depth-bound",
     "if any([k >= count for k in exponents]):",
     "if any([k > count for k in exponents]):", None),
    ("disjoint-key",
     "            q = r[c] // h[c][c]", "            q = 0", None),
    ("bound-below-threshold",
     "if bound.numerator * t_den >= t_num * bound.denominator:",
     "if False:", None),
    ("measure-sum",
     "if total != xden ** n:", "if total > xden ** n:", None),
    ("bound-replay",
     "if num * bound.denominator != den * bound.numerator:",
     "if num * bound.denominator < den * bound.numerator:", None),
)

_FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def locate(text):
    """The one module of src/euclidmin holding text, relative to ROOT."""
    hits = [path for path in sorted(PACKAGE.glob("*.py"))
            for _ in range(path.read_text(encoding="utf-8").count(text))]
    if len(hits) != 1:
        raise LookupError(f"found {len(hits)} times: {text!r}")
    return hits[0].relative_to(ROOT)


def run_mutant(entry):
    """(killer or None, seconds) of one mutant on a fresh copy."""
    name, text, replacement, _ = entry
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in COPIED:
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / locate(text)
        source = target.read_text(encoding="utf-8")
        target.write_text(source.replace(text, replacement), encoding="utf-8")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
             "-p", "no:cacheprovider", "tests"],
            cwd=copy, env=dict(os.environ, PYTHONPATH=str(copy / "src"),
                               PYTHONDONTWRITEBYTECODE="1"),
            capture_output=True, text=True)
    seconds = time.perf_counter() - started
    if done.returncode == 0:
        return None, seconds
    found = _FAILED.search(done.stdout)
    return (found.group(1) if found else f"exit {done.returncode}"), seconds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("names", nargs="*", help="mutants to run (default all)")
    ap.add_argument("--list", action="store_true", help="list the table")
    args = ap.parse_args(argv)
    known = {entry[0] for entry in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        ap.error(f"unknown mutants: {', '.join(unknown)}")
    table = [e for e in MUTANTS if not args.names or e[0] in args.names]
    missing = []
    for name, text, _, _ in table:
        try:
            where = locate(text)
        except LookupError as exc:
            missing.append(name)
            print(f"{name:24} {exc}")
            continue
        if args.list:
            print(f"{name:24} {where}: {text.splitlines()[0]}")
    if args.list or missing:
        return 1 if missing else 0
    bad = []
    summary = {}
    with ThreadPoolExecutor(WORKERS) as pool:
        results = pool.map(run_mutant, table)
        for (name, _, _, argument), (killer, seconds) in zip(table, results):
            verdict = ("killed" if killer else "survived") + \
                (" (equivalent)" if argument else "")
            if (killer is None) != bool(argument):
                bad.append(name)
            summary[name] = killer
            print(f"{name:24} {verdict:23} {seconds:6.1f}s  {killer or ''}",
                  flush=True)
    print(json.dumps({"killers": summary, "failing": bad}, indent=1))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
