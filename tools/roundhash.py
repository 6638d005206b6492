#!/usr/bin/env python3
"""Hash the answers of one benchmark round, to show that a change keeps
every answer byte for byte.

    python3 tools/roundhash.py SEED ROUND            # one `bounds` round
    python3 tools/roundhash.py replay SEED ROUND     # its certificates' replay
    python3 tools/roundhash.py SEED ROUND minima     # `minima` rounds 0..ROUND
    python3 tools/roundhash.py fields                # every benchmark field
    python3 tools/roundhash.py cli                   # `cli-reports` decide, M
    python3 tools/roundhash.py cli-spawn             # all of `cli-reports` 0

For `bounds`, the digest covers every certificate, witness and effort of
round ROUND, and the surviving boxes of every Unresolved covering, also
those inside compute_M. For `replay`, it covers the outcome of
verify_certificate, "pass" or the exact message, on every certificate of
`bounds` round ROUND as read back from its JSON, and on fixed tampers of
each: a bound moved by 1/den either way, a shift moved out of the S-ideal,
a box moved by its width, an entry dropped, an entry duplicated, an entry
copied over another of the same volume and depths, a center moved, the
recorded threshold set to the largest bound, a lower requested threshold,
and a string that does not parse (its outcome is the parse error).
For `minima`, it covers every m_exact value, attaining shift and search
tag, and every m_form value of rounds 0..ROUND.
For `fields`, it covers, for every field of the three benchmark panels, the
root enclosures of refinement levels 0..70, the embeddings of every
integral basis element at the covering's BOUND_WIDTH and at 2^-64,
basis_row_bounds(64), the integral basis over the power basis, the
multiplication table, the index, the discriminant, the trace Gram matrix,
the HNF of the inverse different, and the HNFs of the pairwise products
and the inverses of IDEALS seeded ideals.
For `cli`, it covers the canonical payload (the report without its timing,
as `run_command` makes it at the default budget) of every `decide` and `M`
command of `cli-reports` round 0: the 18 decide fixtures and the two M
reports.
For `cli-spawn`, it covers the exit code and the canonical payload (the
report without its timing) of every operation of `cli-reports` round 0,
verify-cert included, each run as its own process through
perfbench/cli_entry.py, as the benchmark runs them: a fresh interpreter
imports only what its command needs.
The first line counts what was hashed, the second is the SHA-256 digest.
The workloads are those of perfbench/workloads.py, run on the euclidmin
source of this checkout.
"""

import hashlib
import json
import os
import random
import sys
import tempfile
from fractions import Fraction
from math import prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import euclidmin as em  # noqa: E402
from euclidmin import minima  # noqa: E402
from euclidmin.cli import canonical_payload_bytes  # noqa: E402
from euclidmin.cli import certificate_from_json  # noqa: E402
from euclidmin.cli import certificate_to_json as cert  # noqa: E402
from euclidmin.cli import parse_config, rat_to_str, run_command  # noqa: E402
from euclidmin.cli import witness_to_json as wit  # noqa: E402
from euclidmin.covering import BOUND_WIDTH  # noqa: E402
from euclidmin.intervals import Iv  # noqa: E402
from workloads import DECIDE, Bounds, CliReports, Minima  # noqa: E402

LEVELS = 70
IDEALS = 4     # seeded ideals per field of `fields`


def rat(q):
    """A rational as hex numerator/denominator: no limit on its digits."""
    return f"{q.numerator:x}/{q.denominator:x}"


def box(b):
    if isinstance(b, Iv):
        return [rat(b.lo), rat(b.hi)]
    return [box(b.re), box(b.im)]


def seeded_ideals(field, rng):
    """IDEALS ideals (x, q): x with small fractional coordinates, q a small
    integer."""
    out = []
    while len(out) < IDEALS:
        x = field.element([Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(field.degree)])
        if not x.is_zero():
            out.append(em.ideal_from_gens([x, field.from_rational(
                rng.randint(1, 6))]))
    return out


def fields():
    polys = sorted({c.poly for c in Minima.cases + Bounds.cases} |
                   {poly for _, poly, *_ in DECIDE}, key=lambda f: (len(f), f))
    docs, boxes = [], 0
    rng = random.Random(1)
    for poly in polys:
        field = em.make_field(poly)
        roots = field.roots()
        roots.ensure_level(LEVELS)
        levels = [[box(b) for b in real + cplx]
                  for real, cplx in roots.levels[:LEVELS + 1]]
        embeds = [[[box(b) for b in e.reals + e.complexes]
                   for e in (em.embed(w, BOUND_WIDTH),
                             em.embed(w, Fraction(1, 2**64)))]
                  for w in field.integral_basis]
        inv = em.inverse_different(field)
        ideals = seeded_ideals(field, rng)
        lattices = [ideals[i] * ideals[j] for i in range(IDEALS)
                    for j in range(i, IDEALS)]
        lattices += [em.ideal_invert(a) for a in ideals]
        docs.append([list(poly), levels, embeds,
                     [list(map(list, row))
                      for row in field.basis_row_bounds(64)],
                     [[rat(c) for c in row] for row in field.basis_pb],
                     field.mult_table, field.index, field.discriminant,
                     field.trace_gram, [inv.hnf, inv.den],
                     [[a.hnf, a.den] for a in lattices]])
        boxes += sum(map(len, levels))
    print(len(docs), "fields,", boxes, "level boxes")
    return docs


def minima_rounds(seed: int, last: int):
    wl = Minima()
    wl.setup(em, seed)
    docs = []
    for r in range(last + 1):
        for op in wl.round_ops(r, Path(".")):
            res = wl.run_op(op, None)
            docs.append([r, op.kind, op.case and op.case.name, str(op.args),
                         str(res) if op.kind == "form" else
                         [str(res.value),
                          [str(c) for c in res.attaining_shift.coords],
                          dict(res.search_box)]])
    print(len(docs), "operations")
    return docs


def doc(res):
    if isinstance(res, em.CoveringCertificate):
        return {"cert": cert(res)}
    if isinstance(res, em.Unresolved):
        boxes = [[str(c) for c in b.lo + b.hi + b.center] + list(b.exponents)
                 for b in res.boxes]
        return {"boxes": sorted(boxes), "entries": len(res.state.entries),
                "processed": res.processed, "witness": res.witness and
                wit(res.witness, res.witness_minimum)}
    return {"M": [str(res.lower), str(res.upper), res.exact, res.effort,
                  res.witness_orbit_size,
                  wit(res.witness, res.witness_minimum),
                  res.certificate and cert(res.certificate)]}


def bounds_round(seed: int, r: int):
    inner, covering = [], minima.covering_verify
    # the workload's own coverings stay untraced: only compute_M's are inner
    em.covering_verify = covering

    def traced(*args, **kwargs):
        res = covering(*args, **kwargs)
        inner.append(doc(res))
        return res

    minima.covering_verify = traced
    wl = Bounds()
    wl.setup(em, seed)
    docs = []
    for op in wl.round_ops(r, Path(".")):
        inner.clear()
        docs.append([op.kind, op.case.name, str(op.args),
                     doc(wl.run_op(op, None)), list(inner)])
    print(len(docs), "operations,", sum(len(d[4]) for d in docs),
          "inner coverings,",
          sum("boxes" in c for d in docs for c in d[4]), "unresolved")
    return docs


def tampers(ev):
    """(name, evidence, requested threshold) for a certificate's JSON and
    for each fixed tamper of it."""
    entries = ev["entries"]
    k = len(entries) // 2

    def edit(change, threshold=None):
        doc = json.loads(json.dumps(ev))
        change(doc, doc["entries"][k])
        return doc, threshold

    def add(node, key, q):
        node[key] = rat_to_str(Fraction(node[key]) + q)

    def moved(doc, e):
        lo, hi = Fraction(e["box"]["lo"][0]), Fraction(e["box"]["hi"][0])
        step = hi - lo if 2 * hi - lo <= 1 else lo - hi
        add(e["box"]["lo"], 0, step)
        add(e["box"]["hi"], 0, step)

    def volume(e):
        return e["box"]["exponents"], prod(
            Fraction(b) - Fraction(a)
            for a, b in zip(e["box"]["lo"], e["box"]["hi"]))

    def centered(doc, e):
        deep = [f for f in doc["entries"] if any(f["box"]["exponents"])]
        add((deep or [e])[0]["box"]["center"], 0,
            Fraction(1) if deep else Fraction(1, 2))

    den = Fraction(entries[k]["bound"]).denominator
    bounds = [Fraction(e["bound"]) for e in entries]
    yield "none", ev, None
    yield "bound-up", *edit(lambda d, e: add(e, "bound", Fraction(1, den)))
    yield "bound-down", *edit(
        lambda d, e: add(e, "bound", Fraction(-1, den)))
    yield "shift", *edit(lambda d, e: add(e["gamma"], 0, Fraction(1, 7)))
    yield "box", *edit(moved)
    yield "drop", *edit(lambda d, e: d["entries"].pop(k))
    yield "duplicate", *edit(lambda d, e: d["entries"].append(e))
    # in place of another entry of the same volume and depths: only
    # disjointness can fail
    same = [j for j, f in enumerate(entries)
            if j != k and volume(f) == volume(entries[k])]
    if same:
        def copied(doc, e):
            doc["entries"][same[0]] = e
        yield "copy", *edit(copied)
    yield "center", *edit(centered)
    yield "threshold", *edit(
        lambda d, e: d.update(threshold=rat_to_str(max(bounds))))
    yield "requested", ev, Fraction(ev["threshold"]) - Fraction(1, 100)
    yield "parse", *edit(
        lambda d, e: e["box"].update(lo=["x"] + e["box"]["lo"][1:]))


def replay_round(seed: int, r: int):
    wl = Bounds()
    wl.setup(em, seed)
    docs = []
    for op in wl.round_ops(r, Path(".")):
        ctx = wl._built(op.case).ctx
        for item in wl.evidence(op, wl.run_op(op, None)):
            if item["evidence"]["kind"] != "covering":
                continue
            outcomes = []
            for name, ev, threshold in tampers(item["evidence"]):
                try:
                    c = certificate_from_json(json.loads(json.dumps(ev)))
                except em.ValidationError as exc:
                    outcomes.append([name, f"parse: {exc!r}"])
                    continue
                try:
                    em.verify_certificate(ctx, c, threshold)
                    outcomes.append([name, "pass"])
                except AssertionError as exc:
                    outcomes.append([name, str(exc)])
            docs.append([op.kind, op.case.name, str(op.args), outcomes])
    print(len(docs), "certificates,",
          sum(o[1] == "pass" for d in docs for o in d[3]), "passes of",
          sum(len(d[3]) for d in docs), "replays")
    return docs


def cli_reports():
    wl = CliReports()
    wl.setup(em, 0)
    docs = []
    with tempfile.TemporaryDirectory() as workdir:
        for op in wl.round_ops(0, Path(workdir)):
            if op.command not in ("decide", "M"):
                continue
            cfg = parse_config(Path(op.cfg).read_text())
            if "--gap" in op.args:
                cfg.gap = Fraction(op.args[op.args.index("--gap") + 1])
            doc = run_command(cfg, op.command)
            docs.append([op.command, op.case.name,
                         canonical_payload_bytes(doc).decode()])
    print(len(docs), "reports")
    return docs


def cli_spawn():
    os.chdir(ROOT)      # the workload runs src/ of the working directory
    wl = CliReports()
    wl.setup(em, 0)
    docs = []
    with tempfile.TemporaryDirectory() as workdir:
        for op in wl.round_ops(0, Path(workdir)):
            code = wl.run_op(op, None)
            report = json.loads(Path(op.out).read_text())
            docs.append([op.command, op.case.name, code,
                         canonical_payload_bytes(report).decode()])
    print(len(docs), "reports")
    return docs


def main(argv) -> int:
    if argv[1:] == ["fields"]:
        docs = fields()
    elif argv[1:] == ["cli"]:
        docs = cli_reports()
    elif argv[1:] == ["cli-spawn"]:
        docs = cli_spawn()
    elif len(argv) == 4 and argv[1] == "replay":
        docs = replay_round(int(argv[2]), int(argv[3]))
    elif len(argv) in (3, 4) and argv[3:] in ([], ["minima"]):
        seed, r = int(argv[1]), int(argv[2])
        docs = minima_rounds(seed, r) if argv[3:] else bounds_round(seed, r)
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    print(hashlib.sha256(json.dumps(docs, sort_keys=True).encode())
          .hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
