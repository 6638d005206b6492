"""Covering certificates: production, verification, replay, tampering.

Run:  python demos/covering_certificates.py
"""

import random
from fractions import Fraction as F

from euclidmin import (CoveringCertificate, Unresolved, covering_verify,
                       make_field, make_sconfig, s_norm, verify_certificate)
from euclidmin.minima import box_contains_rational
from euclidmin.torus import torus_context

q = make_field([-1, 1])
s23 = make_sconfig(q, [2, 3])
z = q.maximal_order()
ctx = torus_context(z, s23)

print("== a certificate proves: every adele class has a shift below t ==\n")
cert = covering_verify(z, s23, F(21, 100), budget=60000)
print(f"threshold 21/100 over Z[1/6]: {len(cert.entries)} boxes")
for e in cert.entries[:4]:
    print(f"  box arch [{e.box.lo[0]},{e.box.hi[0]}) depths {e.box.exponents}"
          f"  shift gamma = {q.element(e.gamma_coords).as_rational()}"
          f"  certified bound {e.bound}")
print("  ...")
verify_certificate(ctx, cert)
print("full replay (tiling, measure, bit-exact bound re-derivation): OK")

print("\n== monotonicity: the same certificate works at any larger t ==")
verify_certificate(ctx, cert, F(22, 100))
verify_certificate(ctx, cert, F(1))
print("verified at 22/100 and at 1")

print("\n== spot checks with exact arithmetic ==")
rng = random.Random(0)
worst = F(0)
for _ in range(500):
    den = rng.choice([5, 7, 11, 13, 25])
    x = q.from_rational(F(rng.randrange(den), den))
    entry = next(e for e in cert.entries if box_contains_rational(ctx, e.box, x))
    val = s_norm(x - q.element(entry.gamma_coords), s23)
    worst = max(worst, val)
    assert val < F(21, 100)
print("500 random adele points all beat the threshold; worst value:", worst)

print("\n== tampering is always caught ==")
bad = cert._replace(entries=tuple(
    [cert.entries[0]._replace(bound=cert.entries[0].bound / 2)]
    + list(cert.entries[1:])))
try:
    verify_certificate(ctx, bad)
    print("!!! tampered certificate accepted")
except AssertionError as exc:
    print("tampered bound rejected:", exc)

print("\n== below the true supremum the search localizes the hard region ==")
res = covering_verify(z, s23, F(19, 100), budget=1500)
assert isinstance(res, Unresolved)
mids = sorted(set(round(float((b.lo[0] + b.hi[0]) / 2), 2) for b in res.boxes))
print(f"at t = 19/100 < M = 1/5: {len(res.boxes)} surviving boxes cluster near",
      mids[:8], "... (the orbit of 1/5)")
print(f"after {res.processed} boxes the search stopped on the witness "
      f"{res.witness.as_rational()} with exact minimum "
      f"{res.witness_minimum.value} >= 19/100: no covering at 19/100 exists")
