"""Binary quadratic forms and the quadratic ideal dictionary.

A form of fundamental discriminant corresponds to an ideal with a chosen
Z-basis; under that dictionary the inhomogeneous form minimum at a rational
point equals the exact ideal minimum of the matching field element. Definite
forms are also minimized by direct ellipse enumeration, which doubles as an
independent cross-check of the dictionary route.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import ceil, floor, gcd
from typing import NamedTuple

from .errors import (DegenerateForm, NonFundamental, NonFundamentalIndefinite,
                     NotABasis, NotQuadratic, SearchExhausted)
from .fields import (FieldElement, FractionalIdeal, NumberField,
                     ideal_from_gens, ideal_norm, make_field)
from .hnf import int_solve, xgcd
from .minima import m_exact_attained
from .places import make_sconfig
from .qmath import is_fundamental_discriminant, sqrt_upper

WINDOW_MARGIN = 8   # integer steps the direct window reaches past its pairs


class BinaryQuadraticForm(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    def is_primitive(self) -> bool:
        return gcd(gcd(self.a, self.b), self.c) == 1

    def __call__(self, x, y):
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __repr__(self):
        return f"BinaryQuadraticForm({self.a}, {self.b}, {self.c})"


def form_disc_primitive(f: BinaryQuadraticForm):
    return f.disc, f.is_primitive()


def _conjugate(x: FieldElement) -> FieldElement:
    field = x.field
    c0, c1, _ = field.coeffs
    pb = x.power_basis()
    return field.from_power_basis([pb[0] - pb[1] * c1, -pb[1]])


def form_from_ideal(ideal: FractionalIdeal, basis) -> BinaryQuadraticForm:
    """The integer form (alpha1 x + alpha2 y)(conj...)/N(ideal).

    The pair must be a Z-basis of the ideal lattice and the field must be
    quadratic with fundamental discriminant.
    """
    field = ideal.field
    if field.degree != 2:
        raise NotQuadratic(f"degree {field.degree} field")
    if not is_fundamental_discriminant(field.discriminant):
        raise NonFundamental(f"discriminant {field.discriminant}")
    alpha1, alpha2 = basis
    # a Z-basis: integral coordinates over the ideal's HNF, determinant +-1
    (w1, d1), (w2, d2) = ideal.int_coords(alpha1), ideal.int_coords(alpha2)
    det = w1[0] * w2[1] - w1[1] * w2[0]
    if det == 0:
        raise NotABasis("basis elements are linearly dependent")
    if any([c % d1 for c in w1] + [c % d2 for c in w2]) or \
            abs(det) != d1 * d2:
        raise NotABasis("the pair does not span the ideal lattice")
    nrm = ideal_norm(ideal)
    aa = alpha1.norm() / nrm
    bb = (alpha1 * _conjugate(alpha2) + alpha2 * _conjugate(alpha1)).trace() / nrm / 2
    cc = alpha2.norm() / nrm
    if any(q.denominator != 1 for q in (aa, bb, cc)):
        raise AssertionError("form coefficients must be integral")
    form = BinaryQuadraticForm(int(aa), int(bb), int(cc))
    if form.disc != field.discriminant:
        raise AssertionError(
            f"form discriminant {form.disc} != field discriminant")
    return form


def field_of_discriminant(disc: int) -> NumberField:
    """The quadratic field of the given fundamental discriminant."""
    if not is_fundamental_discriminant(disc):
        raise NonFundamental(str(disc))
    if disc % 4 == 0:
        field = make_field([-disc // 4, 0, 1])
    else:
        field = make_field([-(disc - 1) // 4, -1, 1])
    if field.discriminant != disc:
        raise AssertionError(f"field discriminant differs from {disc}")
    return field


def sqrt_disc_element(field: NumberField) -> FieldElement:
    """sqrt(disc) as a field element (2*theta + c1)."""
    c0, c1, _ = field.coeffs
    return field.gen() * 2 + field.from_rational(c1)


def standard_module(f: BinaryQuadraticForm):
    """The ideal [a, (b + sqrt(D))/2] with basis, for a form with a > 0."""
    if f.a <= 0:
        raise ValueError("the standard module needs a > 0")
    field = field_of_discriminant(f.disc)
    alpha1 = field.from_rational(f.a)
    alpha2 = (field.from_rational(f.b) + sqrt_disc_element(field)) / 2
    ideal = ideal_from_gens([alpha1, alpha2])
    if ideal_norm(ideal) != f.a:
        raise AssertionError("standard module norm mismatch")
    return field, ideal, alpha1, alpha2


def _transport_to_positive(f: BinaryQuadraticForm, p):
    """Unimodular change of variables making the leading coefficient positive.

    Returns (g, q, U) with g = f o U, q = U^-1 p, and U a +-1-determinant
    integer matrix, so m_g(q) = m_f(p) and attaining pairs transport by U.
    """
    if f.a > 0:
        return f, p, ((1, 0), (0, 1))
    if f.c > 0:
        g = BinaryQuadraticForm(f.c, f.b, f.a)
        return g, (p[1], p[0]), ((0, 1), (1, 0))
    for radius in range(1, 64):
        for u in range(-radius, radius + 1):
            for v in range(-radius, radius + 1):
                if gcd(u, v) != 1:
                    continue
                if f(u, v) > 0:
                    _, s, t = xgcd(u, v)
                    # U = [[u, -t], [v, s]] has det u*s + v*t = 1
                    a2 = f(u, v)
                    b2 = 2 * (f.a * u * (-t) + f.c * v * s) + f.b * (u * s - t * v)
                    c2 = f(-t, s)
                    g = BinaryQuadraticForm(a2, b2, c2)
                    # U^-1 = [[s, t], [-v, u]]
                    q = (p[0] * s + p[1] * t, -p[0] * v + p[1] * u)
                    if g.disc != f.disc:
                        raise AssertionError(
                            "transport changed the discriminant")
                    return g, q, ((u, -t), (v, s))
    raise SearchExhausted("no positive value found (form not indefinite?)")


def _m_definite(f: BinaryQuadraticForm, p) -> Fraction:
    """Exact minimum of |f(P - Q)| for definite f by ellipse enumeration."""
    sign = 1 if f.a > 0 else -1
    a, b, c = sign * f.a, sign * f.b, sign * f.c
    px, py = Fraction(p[0]), Fraction(p[1])
    disc = abs(f.disc)

    def val(qx, qy):
        vx, vy = px - qx, py - qy
        return a * vx * vx + b * vx * vy + c * vy * vy

    best = val(round(px), round(py))
    if best == 0:
        return Fraction(0)
    # g(v) <= best forces (disc/(4a)) vy^2 <= best and the x-range per row
    ybound = sqrt_upper(best * 4 * a / disc) + 1
    for qy in range(ceil(py - ybound), floor(py + ybound) + 1):
        vy = py - qy
        # a(vx + (b/2a) vy)^2 <= best - (disc/4a) vy^2
        rem = best - Fraction(disc, 4 * a) * vy * vy
        if rem < 0:
            continue
        half = sqrt_upper(rem / a) + 1
        centre = px + Fraction(b, 2 * a) * vy
        for qx in range(ceil(centre - half), floor(centre + half) + 1):
            v = val(qx, qy)
            if v < best:
                best = v
    return best


_SCONFIG_BY_DISC: dict = {}


def _sconfig_for(field: NumberField):
    key = field.coeffs
    if key not in _SCONFIG_BY_DISC:
        _SCONFIG_BY_DISC[key] = make_sconfig(field, [])
    return _SCONFIG_BY_DISC[key]


def m_form(f: BinaryQuadraticForm, p) -> Fraction:
    """Exact inhomogeneous minimum inf over Z^2 of |f(P - Q)|.

    Definite forms go through complete ellipse enumeration; indefinite forms
    with fundamental discriminant route through the ideal dictionary and the
    exact ideal minimum.
    """
    p = (Fraction(p[0]), Fraction(p[1]))
    if f.disc == 0:
        raise DegenerateForm("zero discriminant")
    if p[0].denominator == 1 and p[1].denominator == 1:
        return Fraction(0)
    if f.disc < 0:
        return _m_definite(f, p)
    if not is_fundamental_discriminant(f.disc):
        raise NonFundamentalIndefinite(str(f.disc))
    return m_form_reduced(f, p)[0]


def _direct_window_min(f: BinaryQuadraticForm, p, shift_xy) -> Fraction:
    """Direct minimum of |f(P - Q)| over an integer window.

    The window is grown to contain the attaining pair reported by the
    dictionary route, so the direct value must reproduce the exact minimum
    (smaller would expose a dictionary bug, larger a window bug).
    """
    px, py = Fraction(p[0]), Fraction(p[1])
    xs = [floor(px), ceil(px), floor(shift_xy[0]), ceil(shift_xy[0])]
    ys = [floor(py), ceil(py), floor(shift_xy[1]), ceil(shift_xy[1])]
    best = None
    for qx in range(min(xs) - WINDOW_MARGIN, max(xs) + WINDOW_MARGIN + 1):
        for qy in range(min(ys) - WINDOW_MARGIN, max(ys) + WINDOW_MARGIN + 1):
            v = abs(f(px - qx, py - qy))
            if best is None or v < best:
                best = v
    return best


def bsd_check(f: BinaryQuadraticForm, denom_bound: int, sample_count: int,
              rng=None):
    """Best rational lower bound for the form supremum plus a consistency
    table comparing the dictionary route with direct enumeration."""
    if f.disc <= 0:
        raise DegenerateForm("indefinite form required")
    if not is_fundamental_discriminant(f.disc):
        raise NonFundamentalIndefinite(str(f.disc))
    if not f.is_primitive():
        raise NonFundamentalIndefinite("form is not primitive")
    rng = rng or random.Random(20240 + f.disc)
    best = (Fraction(0), (Fraction(0), Fraction(0)))
    seen = set()
    for qden in range(1, denom_bound + 1):
        for ix in range(qden):
            for iy in range(qden):
                if gcd(gcd(ix, iy), qden) != 1 and (ix, iy) != (0, 0):
                    continue
                p = (Fraction(ix, qden), Fraction(iy, qden))
                if p in seen:
                    continue
                seen.add(p)
                val = m_form(f, p)
                if val > best[0]:
                    best = (val, p)
    table = []
    for _ in range(sample_count):
        qden = rng.randint(2, max(2, denom_bound))
        p = (Fraction(rng.randrange(qden), qden),
             Fraction(rng.randrange(qden), qden))
        via_ideal, red_point, red_shift = m_form_reduced(f, p)
        direct = _direct_window_min(f, red_point, red_shift)
        table.append({"point": p, "ideal_route": via_ideal,
                      "direct": direct, "equal": via_ideal == direct})
    return {"lower_bound": best[0], "candidate_point": best[1],
            "consistency": table,
            "all_equal": all(row["equal"] for row in table)}


def m_form_reduced(f: BinaryQuadraticForm, p):
    """m_form for an indefinite form, plus an automorph-reduced point with
    the same minimum and its small attaining integer pair.

    Direct enumeration around the reduced point is a complete cross-check:
    the unit (automorph) action preserves the form values, so the minimum at
    the reduced point equals the minimum at p, and there the attaining pair
    is boundedly small.
    """
    p = (Fraction(p[0]), Fraction(p[1]))
    if f.disc <= 0 or not is_fundamental_discriminant(f.disc):
        raise NonFundamentalIndefinite(str(f.disc))
    if p[0].denominator == 1 and p[1].denominator == 1:
        return Fraction(0), p, (p[0], p[1])
    g, q, u_mat = _transport_to_positive(f, p)
    field, ideal, alpha1, alpha2 = standard_module(g)
    xi = alpha1 * q[0] + alpha2 * q[1]
    mv, rep, rep_shift, _ = m_exact_attained(ideal, _sconfig_for(field), xi)
    # coordinates over (alpha1, alpha2), on the integer matrix
    # d1 d2 [alpha1 | alpha2]
    mat = [[alpha1.nums[i] * alpha2.den, alpha2.nums[i] * alpha1.den]
           for i in range(2)]

    def over_alphas(x):
        y, d = int_solve(mat, [c * alpha1.den * alpha2.den for c in x.nums])
        return [Fraction(c, d * x.den) for c in y]

    q_red = over_alphas(rep)
    q_shift = over_alphas(rep_shift)
    if any(v.denominator != 1 for v in q_shift):
        raise AssertionError("shift is not a Z-pair")
    # transport the reduced data back through U so it lives in f's variables
    back_pt = (u_mat[0][0] * q_red[0] + u_mat[0][1] * q_red[1],
               u_mat[1][0] * q_red[0] + u_mat[1][1] * q_red[1])
    back_sh = (u_mat[0][0] * q_shift[0] + u_mat[0][1] * q_shift[1],
               u_mat[1][0] * q_shift[0] + u_mat[1][1] * q_shift[1])
    if abs(f(back_pt[0] - back_sh[0], back_pt[1] - back_sh[1])) != mv.value:
        raise AssertionError("reduced attaining pair does not replay")
    return mv.value, back_pt, back_sh
