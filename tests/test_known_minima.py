"""Known Euclidean minima: compute_M at gap 1/100 and the default budget
brackets the literature value of each field, within the gap.

Imaginary quadratic Q(sqrt-m): (1+m)/4 when -m = 2, 3 mod 4, and
(1+m)^2/(16m) when -m = 1 mod 4. Real quadratic: Barnes and
Swinnerton-Dyer, as tabulated by Lemmermeyer (Expo. Math. 13, 1995).
A field joins only once it passes; none is skipped.
"""

import time
from fractions import Fraction as F

from euclidmin import compute_M, make_field, make_sconfig

GAP = F(1, 100)
TIME_LIMIT_S = 30   # all ten fields together; about 1.3 s on 2 cores

KNOWN_MINIMA = (
    ("Q(sqrt2)", [-2, 0, 1], F(1, 2)),
    ("Q(sqrt3)", [-3, 0, 1], F(1, 2)),
    ("Q(sqrt5)", [-1, -1, 1], F(1, 4)),
    ("Q(sqrt6)", [-6, 0, 1], F(3, 4)),
    ("Q(sqrt17)", [-4, -1, 1], F(1, 2)),
    ("Q(i)", [1, 0, 1], F(1, 2)),
    ("Q(sqrt-2)", [2, 0, 1], F(3, 4)),
    ("Q(sqrt-3)", [1, 1, 1], F(1, 3)),
    ("Q(sqrt-7)", [2, -1, 1], F(4, 7)),
    ("Q(sqrt-11)", [3, -1, 1], F(9, 11)),
)


def test_compute_m_brackets_known_minima():
    started = time.perf_counter()
    for name, poly, known in KNOWN_MINIMA:
        field = make_field(poly)
        rep = compute_M(field.maximal_order(), make_sconfig(field, []), GAP)
        assert rep.upper is not None, name
        assert rep.lower <= known <= rep.upper, (name, rep.lower, rep.upper)
        assert rep.upper - rep.lower <= GAP, (name, rep.lower, rep.upper)
    assert time.perf_counter() - started < TIME_LIMIT_S
