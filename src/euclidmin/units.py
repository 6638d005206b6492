"""Unit computations: torsion, fundamental units, principal power generators,
and verified S-unit bases.

The fundamental unit of a real quadratic field comes from one continued
fraction over the maximal order, that of (s + sqrt(D))/2 with D the field
discriminant, on integers; it is returned > 1 at the last real place and
its norm is checked exactly. No float enters this module.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt, lcm

from .enumerate import elements_in_box, real_box_targets
from .errors import (NotAnSUnit, RankDeficient, RankUndetermined,
                     SearchExhausted, UnsupportedDegree)
from .fields import (FieldElement, FractionalIdeal, NumberField, embed,
                     ideal_from_gens, ideal_norm)
from .hnf import int_interval_det
from .intervals import Iv
from .places import Place, SConfig, s_norm, times_prime_powers, valuation
from .qmath import dyadic_outward, ln_enclosure, sqrt_upper

PELL_STEPS = 200000   # continued-fraction steps fundamental_solution may take
POWER_MAX = 12        # largest ideal power principal_power_generator tries


def fundamental_solution(disc: int) -> tuple[int, int]:
    """Least (t, u) with t, u > 0 and t^2 - disc*u^2 = +-4, for a positive
    nonsquare discriminant disc: (t + u*sqrt(disc))/2 is the fundamental
    unit of the order of discriminant disc.

    Continued fraction of omega = (s + sqrt(disc))/2, s = disc mod 2, on
    integers (Cohen, GTM 138, 5.7): complete quotients (P + sqrt(disc))/Q,
    convergents p/q, stopped at the first with N(p - q*omega) = +-1, whose
    conjugate p - q*omega' is the unit.
    """
    s = disc % 2
    root = isqrt(disc)
    if root * root == disc:
        raise ValueError("disc must be nonsquare")
    c = (disc - s) // 4           # omega^2 = s*omega + c
    P, Q = s, 2
    a = (P + root) // Q
    p_prev, p = 1, a
    q_prev, q = 0, 1
    for _ in range(PELL_STEPS):
        if p * p - s * p * q - c * q * q in (1, -1):
            return 2 * p - s * q, q
        P = a * Q - P
        Q = (disc - P * P) // Q
        a = (P + root) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    raise SearchExhausted(
        f"unit of discriminant {disc} not found in {PELL_STEPS} steps")


def fundamental_unit(field: NumberField) -> FieldElement:
    """Fundamental unit of a real quadratic field, > 1 at the last real place.

    With D the field discriminant, sqrt(D) = (2*theta + c1)/index; the last
    real place embeds theta as the larger root, where 2*theta + c1 > 0, so
    (t + u*sqrt(D))/2 with t, u > 0 exceeds 1 there.
    """
    if field.degree != 2 or field.signature != (2, 0):
        raise UnsupportedDegree("fundamental units only for real quadratic fields")
    t, u = fundamental_solution(field.discriminant)
    c1 = field.coeffs[1]
    sqrt_d = (field.gen() * 2 + field.from_rational(c1)) / field.index
    unit = (field.from_rational(t) + sqrt_d * u) / 2
    if abs(unit.norm()) != 1:
        raise AssertionError("continued-fraction solution is not a unit")
    return unit


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
            # (cand) <= power with equal norms is power itself
            if abs(cand.norm()) == nrm and power.contains(cand):
                return h, cand
    raise SearchExhausted(f"no principal power up to exponent {POWER_MAX}")


def default_unit_gens(field: NumberField, finite_places) -> list[FieldElement]:
    """Built-in S-unit generators for Q and quadratic fields.

    Q: the rational primes under the finite places. Quadratic fields: the
    fundamental unit (real case) plus a generator of the least principal
    power of each finite prime.
    """
    if field.degree == 1:
        return [field.from_rational(v.p) for v in finite_places]
    if field.degree == 2:
        gens = [fundamental_unit(field)] if field.signature == (2, 0) else []
        return gens + [principal_power_generator(v.prime_ideal())[1]
                       for v in finite_places]
    if finite_places or field.signature[0] + field.signature[1] > 1:
        raise SearchExhausted(
            "no built-in unit generators beyond Q and quadratic fields; "
            "supply unit generators explicitly")
    return []


def verify_s_unit_basis(sconfig: SConfig, gens) -> SConfig:
    """Check the generators really are independent S-units, and attach
    them to sconfig, which is returned verified.

    Each generator must have its principal ideal supported exactly on the
    finite places of S, and the log-embedding matrix (one column per place)
    must have certified rank #S - 1.
    """
    field = sconfig.field
    gens = list(gens)
    need = sconfig.rank()
    if len(gens) < need:
        raise RankDeficient(f"need {need} generators, got {len(gens)}")
    if len(gens) > need:
        raise RankDeficient(f"expected exactly {need} generators, got {len(gens)}")
    for u in gens:
        if u.is_zero():
            raise NotAnSUnit("zero is not a unit")
        support = times_prime_powers(
            field.maximal_order(), sconfig.finite_places,
            [valuation(u, v) for v in sconfig.finite_places])
        if support != ideal_from_gens([u]):
            raise NotAnSUnit(f"{u} has support outside S")
        if s_norm(u, sconfig) != 1:
            raise NotAnSUnit(f"{u} has S-norm != 1")
    if need:
        _certify_log_rank(sconfig, gens)
    sconfig.unit_gens = tuple(gens)
    sconfig.torsion = torsion_generator(field)
    sconfig.verified = True
    return sconfig


def _certify_log_rank(sconfig: SConfig, gens):
    """Interval determinant of the log matrix with one place column dropped,
    on integers: the entries over one common denominator D, which scales
    the enclosure by D^n and so keeps whether it holds 0."""
    err = Fraction(1, 2**16)
    for _ in range(8):
        rows = [[_log_abs_interval(u, v, err)
                 for v in sconfig.places[:-1]] for u in gens]
        den = lcm(*[x.denominator for row in rows for iv in row
                    for x in (iv.lo, iv.hi)])
        lo, hi = int_interval_det([[(int(iv.lo * den), int(iv.hi * den))
                                    for iv in row] for row in rows])
        if not lo <= 0 <= hi:
            return
        err /= 256
    raise RankUndetermined("log-rank certification ran out of precision")


def _log_abs_interval(x: FieldElement, place: Place, err: Fraction) -> Iv:
    """Certified interval around ln|x|_place (normalized absolute value)."""
    if place.is_finite():
        w = valuation(x, place)
        lo, hi = ln_enclosure(Fraction(place.residue_norm()), err)
        return Iv(-w * hi, -w * lo) if w >= 0 else Iv(-w * lo, -w * hi)
    prec = err
    for _ in range(60):
        iv = place.magnitude(embed(x, prec))
        if iv.lo > 0:
            # ln is increasing, so a dyadic enclosure of the magnitude
            # keeps the log enclosure certified; lo stays positive
            lo, hi = dyadic_outward(iv.lo, iv.hi)
            return Iv(ln_enclosure(lo, err / 2)[0], ln_enclosure(hi, err / 2)[1])
        prec /= 16
    raise SearchExhausted("embedding magnitude would not separate from zero")


def shrinking_unit(sconfig: SConfig, w: Place) -> FieldElement:
    """An S-unit with |eps|_v < 1 at every place of S except w.

    Searched as integer exponent vectors on the verified generators in
    boxes of growing radius; every strict inequality is certified (exactly
    at finite places, by intervals at archimedean ones).
    """
    if not sconfig.verified:
        raise SearchExhausted("S-unit basis must be verified first")
    if sconfig.size < 2:
        raise SearchExhausted("need at least two places")
    gens = sconfig.unit_gens
    if w not in sconfig.places:
        raise ValueError("w must belong to S")
    # precompute exact finite-place valuations of the generators
    fin_vals = {v: [valuation(u, v) for u in gens]
                for v in sconfig.finite_places if v != w}
    for radius in range(1, 9):
        # exponent vectors of max-norm exactly radius, lexicographic
        for ks in itertools.product(range(-radius, radius + 1),
                                    repeat=len(gens)):
            if radius not in map(abs, ks) or any(
                    sum(k * val for k, val in zip(ks, vals)) <= 0
                    for vals in fin_vals.values()):
                continue
            eps = sconfig.field.one()
            for k, u in zip(ks, gens):
                if k:
                    eps = eps * u ** k
            if _certify_small_everywhere(sconfig, eps, w):
                return eps
    raise SearchExhausted("no shrinking unit in the exponent search box")


def _certify_small_everywhere(sconfig: SConfig, eps: FieldElement,
                              w: Place) -> bool:
    for v in sconfig.places:
        if v == w:
            continue
        if v.is_finite():
            if v.abs_value(eps) >= 1:
                return False
            continue
        prec = Fraction(1, 2**10)
        for _ in range(20):
            iv = v.magnitude(embed(eps, prec))
            if iv.hi < 1:
                break
            if iv.lo > 1:
                return False
            prec /= 16
        else:
            return False
    return True
