"""The integer Horner kernel of roots.eval_interval against a Fraction
Horner on Iv/CIv, endpoint for endpoint."""

import random
from fractions import Fraction as F

import pytest

from euclidmin import make_field
from euclidmin.intervals import CIv, Iv
from euclidmin.roots import eval_interval


def _ref_eval(coeffs, x):
    """Horner in Iv/CIv arithmetic, started from x - x as eval_interval is."""
    out = x - x
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _ends(box):
    parts = [box] if isinstance(box, Iv) else [box.re, box.im]
    ends = [q for iv in parts for q in (iv.lo, iv.hi)]
    assert all(type(q) is F for q in ends)
    return type(box), tuple(ends)


def _rat(rng):
    """A rational whose denominator has nothing to do with the others'."""
    return F(rng.randint(-60, 60), rng.choice((1, 2, 3, 7, 12, 25, 2**40, 3**9)))


def _iv(rng, kind):
    if kind == "point":
        return Iv.point(_rat(rng))
    if kind == "straddle":
        return Iv(-abs(_rat(rng)) - F(1, 11), abs(_rat(rng)) + F(1, 13))
    lo = _rat(rng)
    return Iv(lo, lo + abs(_rat(rng)))


def _coeffs(rng, degree):
    return [rng.randint(-9, 9) if rng.random() < 0.5 else _rat(rng)
            for _ in range(degree + 1)]


@pytest.mark.parametrize("kind", ["point", "straddle", "any"])
def test_eval_interval_matches_fraction_horner(kind):
    rng = random.Random(f"eval_interval:{kind}")
    for _ in range(60):
        for degree in range(5):
            coeffs = _coeffs(rng, degree)
            for box in (_iv(rng, kind), CIv(_iv(rng, kind), _iv(rng, kind))):
                assert _ends(eval_interval(coeffs, box)) == \
                    _ends(_ref_eval(coeffs, box))
    # int and Fraction coefficients of the same values give the same box
    box = CIv(_iv(rng, kind), _iv(rng, kind))
    assert _ends(eval_interval([3, -1, 2], box)) == \
        _ends(eval_interval([F(3), F(-1), F(2)], box))


@pytest.mark.parametrize("poly", [[-1, -1, 0, 1], [1, 1, 1, 1, 1]])
def test_eval_interval_on_root_levels(poly):
    # the embeddings of the integral basis, and the Newton evaluations, at
    # every level box from 16 to 70: denominators of hundreds of bits
    field = make_field(poly)
    roots = field.roots()
    roots.ensure_level(70)
    polys = [w.power_basis() for w in field.integral_basis]
    polys += [roots.coeffs, roots.dcoeffs]
    # once each: a box stays as it is over the levels it already meets
    boxes = {_ends(box): box for real, cplx in roots.levels[16:71]
             for box in real + cplx}
    for box in boxes.values():
        for coeffs in polys:
            assert _ends(eval_interval(coeffs, box)) == \
                _ends(_ref_eval(coeffs, box))
