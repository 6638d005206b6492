"""Unit computations: torsion, fundamental units, principal power generators.

Fundamental units of real quadratic fields come from the continued fraction
of sqrt(m) (fundamental solution of the +-1 Pell equation is a convergent),
followed by an exact cube-root refinement when the maximal order is strictly
larger than Z[sqrt(m)] (the unit index there divides 3). Everything returned
is verified exactly; floats only propose candidates.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, sqrt

from .enumerate import elements_in_box, real_box_targets
from .errors import SearchExhausted, UnsupportedDegree
from .fields import (FieldElement, FractionalIdeal, NumberField, embed,
                     ideal_from_gens, ideal_norm)
from .qmath import squarefree_part, sqrt_upper

PELL_STEPS = 200000   # continued-fraction steps the Pell search may take
POWER_MAX = 12        # largest ideal power principal_power_generator tries


def sqrt_m_element(field: NumberField, m: int) -> FieldElement:
    """The element sqrt(m) in a quadratic field whose discriminant allows it."""
    c0, c1, _ = field.coeffs
    disc_poly = c1 * c1 - 4 * c0
    t2, rest = divmod(disc_poly, m)
    t = isqrt(t2)
    if rest or t * t != t2:
        raise ValueError("polynomial discriminant is not m times a square")
    # 2*theta + c1 squares to disc_poly
    theta = field.gen()
    delta = theta * 2 + field.from_rational(c1)
    return delta / t


def pell_fundamental(m: int) -> tuple[int, int]:
    """Fundamental (x, y) with x^2 - m y^2 = +-1, x, y > 0, via sqrt(m) CF."""
    a0 = isqrt(m)
    if a0 * a0 == m:
        raise ValueError("m must be nonsquare")
    P, Q = 0, 1
    a = a0
    p_prev, p = 1, a0
    q_prev, q = 0, 1
    for _ in range(PELL_STEPS):
        if p * p - m * q * q in (1, -1):
            return p, q
        P = a * Q - P
        Q = (m - P * P) // Q
        a = (P + a0) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    raise SearchExhausted(f"Pell equation for m={m} not solved in {PELL_STEPS} steps")


def _last_real_embedding(x: FieldElement, prec: Fraction):
    return embed(x, prec).reals[-1]


def _canonicalize_real_unit(field, unit: FieldElement) -> FieldElement:
    """Scale by +-1 and inversion so the last real embedding exceeds 1."""
    prec = Fraction(1, 2**12)
    for _ in range(60):
        iv = _last_real_embedding(unit, prec).abs()
        if iv.hi < 1:
            unit = unit.inverse()
            break
        if iv.lo > 1:
            break
        prec /= 16
    else:
        raise SearchExhausted("unit magnitude stuck at 1")
    prec = Fraction(1, 2**12)
    for _ in range(60):
        iv = _last_real_embedding(unit, prec)
        if iv.hi < 0:
            return -unit
        if iv.lo > 0:
            return unit
        prec /= 16
    raise SearchExhausted("unit sign undetermined")


def fundamental_unit(field: NumberField) -> FieldElement:
    """Fundamental unit (> 1 at the first real place) of a real quadratic field."""
    if field.degree != 2 or field.signature != (2, 0):
        raise UnsupportedDegree("fundamental units only for real quadratic fields")
    disc = field.discriminant
    m = squarefree_part(disc)
    x, y = pell_fundamental(m)
    sm = sqrt_m_element(field, m)
    u1 = field.from_rational(x) + sm * y
    if abs(u1.norm()) != 1:
        raise AssertionError("Pell solution is not a unit")
    unit = u1
    if disc % 4 == 1:
        cube = _exact_unit_cube_root(field, u1, sm, m)
        if cube is not None:
            unit = cube
    return _canonicalize_real_unit(field, unit)


def _exact_unit_cube_root(field, u1, sm, m):
    """Exact epsilon with epsilon^3 = +-u1, half-integer coordinates, or None."""
    prec = Fraction(1, 2**30)
    box = embed(u1, prec)
    val = float(box.reals[0].mid)
    if val < 0:
        val = -val
    c = val ** (1.0 / 3.0)
    smf = sqrt(m)
    for sign_norm in (1, -1):
        # sigma1 = c, sigma2 = sign_norm / c (norm of the cube root candidate)
        s1 = c
        s2 = sign_norm / c
        a_approx = s1 + s2          # = x for eps = (x + y sqrt(m))/2 times 2... see below
        b_approx = (s1 - s2) / smf
        for da in range(-3, 4):
            for db in range(-3, 4):
                xx = round(a_approx) + da    # eps = (xx + yy*sqrt(m))/2
                yy = round(b_approx) + db
                if (xx - yy) % 2 != 0 and m % 4 == 1:
                    # for m = 1 mod 4 half-integers need xx = yy mod 2
                    continue
                cand = (field.from_rational(xx) + sm * yy) / 2
                if not all(co.denominator == 1 for co in cand.coords):
                    continue
                if cand.is_zero():
                    continue
                c3 = cand * cand * cand
                if c3 == u1 or c3 == -u1:
                    if abs(cand.norm()) == 1:
                        return cand
    return None


def torsion_generator(field: NumberField) -> tuple[FieldElement, int]:
    """Generator of the (cyclic) group of roots of unity, with its order."""
    n = field.degree
    one = field.one()
    r1, r2 = field.signature
    if r1 > 0:
        return -one, 2
    targets = real_box_targets(field, [Fraction(1)] * r1,
                               [Fraction(1)] * r2)
    basis = [field.element([1 if k == i else 0 for k in range(n)])
             for i in range(n)]
    torsion = []
    for cand in elements_in_box(basis, field.zero(), targets):
        if cand.is_zero():
            continue
        if abs(cand.norm()) != 1:
            continue
        p = cand
        for order in range(1, 13):
            if p == one:
                torsion.append((order, cand))
                break
            p = p * cand
    if not torsion:
        raise AssertionError("torsion group search found nothing (missing 1?)")
    best_order = max(o for o, _ in torsion)
    gens = sorted((c.coords for o, c in torsion if o == best_order))
    return field.element(gens[0]), best_order


def principal_power_generator(ideal: FractionalIdeal):
    """Least h >= 1 with ideal^h principal, and a generator; exact search.

    Supports degree 1 and 2 fields. For real quadratic fields the search box
    is complete because a generator can always be unit-scaled to balance its
    two embeddings.
    """
    field = ideal.field
    if field.degree == 1:
        g = ideal.basis_element(0)
        return 1, g
    if field.degree != 2:
        raise UnsupportedDegree("principal power search needs degree <= 2")
    r1, _ = field.signature
    unit = fundamental_unit(field) if r1 == 2 else None
    power = field.maximal_order()
    for h in range(1, POWER_MAX + 1):
        power = power * ideal
        nrm = ideal_norm(power)
        if nrm.denominator != 1:
            raise ValueError("ideal power has a non-integral norm")
        target_norm = nrm
        if r1 == 0:
            targets = real_box_targets(field, [], [Fraction(nrm)])
        else:
            # a generator can be unit-scaled so both embeddings stay below
            # sqrt(norm * eps), with eps the fundamental unit magnitude
            ubox = embed(unit, Fraction(1, 2**20))
            ub = ubox.reals[-1].abs().hi + Fraction(1, 2**10)
            c = sqrt_upper(Fraction(nrm) * ub) + Fraction(1, 2**10)
            targets = real_box_targets(field, [c, c], [])
        basis = power.basis_elements()
        for cand in elements_in_box(basis, field.zero(), targets):
            if cand.is_zero():
                continue
            if abs(cand.norm()) == target_norm and power.contains(cand):
                if ideal_from_gens([cand]) == power:
                    return h, cand
    raise SearchExhausted(f"no principal power up to exponent {POWER_MAX}")
