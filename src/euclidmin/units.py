"""Unit computations: torsion, fundamental units, principal power generators,
and verified S-unit bases.

Fundamental units of real quadratic fields come from the continued fraction
of sqrt(m) (fundamental solution of the +-1 Pell equation is a convergent),
followed by an exact cube-root refinement when the maximal order is strictly
larger than Z[sqrt(m)] (the unit index there divides 3). Everything returned
is verified exactly; floats only propose candidates.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import isqrt, lcm, sqrt

from .enumerate import elements_in_box, real_box_targets
from .errors import (NotAnSUnit, RankDeficient, RankUndetermined,
                     SearchExhausted, UnsupportedDegree)
from .fields import (FieldElement, FractionalIdeal, NumberField, embed,
                     ideal_from_gens, ideal_norm)
from .hnf import int_interval_det
from .intervals import Iv
from .places import Place, SConfig, s_norm, times_prime_powers, valuation
from .qmath import (dyadic_outward, ln_enclosure, squarefree_part,
                    sqrt_upper)

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


def _canonicalize_real_unit(field, unit: FieldElement) -> FieldElement:
    """Scale by +-1 and inversion so the last real embedding exceeds 1."""
    prec = Fraction(1, 2**12)
    for _ in range(60):
        iv = embed(unit, prec).reals[-1].abs()
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
        iv = embed(unit, prec).reals[-1]
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
            if abs(cand.norm()) == nrm and power.contains(cand):
                if ideal_from_gens([cand]) == power:
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
