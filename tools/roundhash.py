#!/usr/bin/env python3
"""Hash the answers of one benchmark round, to show that a change keeps
every answer byte for byte.

    python3 tools/roundhash.py SEED ROUND            # one `bounds` round
    python3 tools/roundhash.py SEED ROUND minima     # `minima` rounds 0..ROUND
    python3 tools/roundhash.py fields                # every benchmark field
    python3 tools/roundhash.py cli                   # `cli-reports` decide, M

For `bounds`, the digest covers every certificate, witness and effort of
round ROUND, and the surviving boxes of every Unresolved covering, also
those inside compute_M. For `minima`, it covers every m_exact value,
attaining shift and search tag, and every m_form value of rounds 0..ROUND.
For `fields`, it covers, for every field of the three benchmark panels, the
root enclosures of refinement levels 0..70, the embeddings of every
integral basis element at the covering's BOUND_WIDTH and at 2^-64, and
basis_row_bounds(64).
For `cli`, it covers the canonical payload (the report without its timing,
as `run_command` makes it at the default budget) of every `decide` and `M`
command of `cli-reports` round 0: the 18 decide fixtures and the two M
reports.
The first line counts what was hashed, the second is the SHA-256 digest.
The workloads are those of perfbench/workloads.py, run on the euclidmin
source of this checkout.
"""

import hashlib
import json
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import euclidmin as em  # noqa: E402
from euclidmin import minima  # noqa: E402
from euclidmin.cli import canonical_payload_bytes  # noqa: E402
from euclidmin.cli import certificate_to_json as cert  # noqa: E402
from euclidmin.cli import parse_config, run_command  # noqa: E402
from euclidmin.cli import witness_to_json as wit  # noqa: E402
from euclidmin.covering import BOUND_WIDTH  # noqa: E402
from euclidmin.intervals import Iv  # noqa: E402
from workloads import DECIDE, Bounds, CliReports, Minima  # noqa: E402

LEVELS = 70


def rat(q):
    """A rational as hex numerator/denominator: no limit on its digits."""
    return f"{q.numerator:x}/{q.denominator:x}"


def box(b):
    if isinstance(b, Iv):
        return [rat(b.lo), rat(b.hi)]
    return [box(b.re), box(b.im)]


def fields():
    polys = sorted({c.poly for c in Minima.cases + Bounds.cases} |
                   {poly for _, poly, *_ in DECIDE}, key=lambda f: (len(f), f))
    docs, boxes = [], 0
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
        docs.append([list(poly), levels, embeds,
                     [list(map(list, row))
                      for row in field.basis_row_bounds(64)]])
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


def main(argv) -> int:
    if argv[1:] == ["fields"]:
        docs = fields()
    elif argv[1:] == ["cli"]:
        docs = cli_reports()
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
