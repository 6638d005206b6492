"""Places of a number field, exact S-norms, and verified S-unit data.

Absolute values are normalized so the product formula holds exactly over Q:
real places contribute |x|, complex places the squared modulus, and a finite
place above p with residue degree f contributes (p^f)^(-v(x)). With that
normalization N_S of a nonzero element is an exact rational.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .errors import (IndexDivisor, NotAnSUnit, NotPrime, RankDeficient,
                     RankUndetermined, SearchExhausted, ZeroElement)
from .fields import (FieldElement, FractionalIdeal, NumberField, embed,
                     ideal_from_gens, ideal_norm, int_mul)
from .hnf import fp_kernel, int_interval_det
from .intervals import Iv
from .polynomials import deg, factor_mod_p
from .qmath import dyadic_outward, int_valuation, is_prime, ln_enclosure
from .units import fundamental_unit, principal_power_generator, torsion_generator


class Place:
    """A place of K: archimedean (real/complex) or finite prime.

    A finite place keeps its exact data, made once in __init__: the powers
    of its prime ideal by exponent, beta and a uniformizer; equality and
    hash see the other attributes. places_above makes the finite places of
    each (field, p) only once.
    """

    def __init__(self, field: NumberField, kind: str, index: int = 0,
                 p: int = 0, gen_poly: tuple = (), e: int = 0, f: int = 0):
        self.field = field
        self.kind = kind            # "real" | "complex" | "finite"
        self.index = index          # archimedean index into the root boxes
        self.p = p                  # finite residue characteristic
        self.gen_poly = gen_poly    # lifted irreducible factor mod p
        self.e = e
        self.f = f
        self._identity = (field, kind, index, p, gen_poly, e, f)
        self._powers = {}
        self._beta = ()
        self._uniformizer = None
        if kind != "finite":
            return
        if e * f > field.degree:
            raise ValueError("e*f exceeds the field degree")
        g = self.second_generator()
        p_elt = field.from_rational(p)
        ideal = ideal_from_gens([p_elt, g])
        if ideal_norm(ideal) != p**f:
            raise ValueError("prime ideal norm does not match p^f")
        self._powers[1] = ideal
        # beta: a nonzero kernel vector of multiplication by g modulo p
        kernel = fp_kernel(field.int_mult_matrix(g.nums), p)
        if g.den != 1 or not kernel:
            raise AssertionError("no beta for this place")
        self._beta = tuple(kernel[0])
        candidates = [g, g + p_elt] if not g.is_zero() else []
        candidates.append(p_elt)
        for cand in candidates:
            if valuation(cand, self) == 1:
                self._uniformizer = cand
                break
        else:
            raise SearchExhausted("no uniformizer among standard candidates")

    def __eq__(self, other):
        return (self._identity == other._identity
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._identity)

    def is_finite(self) -> bool:
        return self.kind == "finite"

    def residue_norm(self) -> int:
        """Size of the residue field, N(p) = p^f."""
        return self.p**self.f

    def second_generator(self) -> FieldElement:
        """gen_poly(theta): with p, it generates the prime ideal."""
        theta = self.field.gen()
        power, out = self.field.one(), self.field.zero()
        for c in self.gen_poly:
            out = out + power * c
            power = power * theta
        return out

    def prime_ideal(self) -> FractionalIdeal:
        return self._powers[1]

    def ideal_power(self, k: int) -> FractionalIdeal:
        powers = self._powers
        if k not in powers:
            powers[k] = self.prime_ideal() ** k
        return powers[k]

    def uniformizer(self) -> FieldElement:
        """Element with valuation exactly 1 at this place."""
        return self._uniformizer

    def beta(self) -> tuple:
        """Integer coordinates of an integral beta with beta P <= pO and
        beta not in pO (Cohen, GTM 138, section 4.8).

        P = pO + gO, so beta is a nonzero kernel vector of multiplication
        by the second generator g modulo p.
        """
        return self._beta

    def abs_value(self, x: FieldElement) -> Fraction:
        """Exact normalized absolute value at a finite place."""
        if not self.is_finite():
            raise ValueError("abs_value needs a finite place")
        if x.is_zero():
            return Fraction(0)
        return Fraction(self.residue_norm()) ** (-valuation(x, self))

    def __repr__(self):
        if self.is_finite():
            return f"Place(p={self.p}, e={self.e}, f={self.f})"
        return f"Place({self.kind}[{self.index}])"

    def sort_key(self):
        return (0 if self.kind == "real" else 1 if self.kind == "complex" else 2,
                self.p, self.f, self.e, self.gen_poly, self.index)


def archimedean_places(field: NumberField) -> list[Place]:
    r1, r2 = field.signature
    return ([Place(field, "real", index=i) for i in range(r1)]
            + [Place(field, "complex", index=i) for i in range(r2)])


def places_above(field: NumberField, p: int) -> list[Place]:
    """All finite places above p, via factorization of the field polynomial.

    Requires p prime and coprime to the index [O : Z[theta]], so the shape of
    the factorization mod p matches the splitting of p. The places are made
    once per field and p (field.places keeps them), so every call returns
    the same Place objects.
    """
    if p in field.places:
        return list(field.places[p])
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if field.index % p == 0:
        raise IndexDivisor(f"{p} divides the index [O : Z[theta]] = {field.index}")
    out = []
    total = 0
    for g, e in factor_mod_p(list(field.coeffs), p):
        # lift coefficients to the symmetric range for smaller generators
        lifted = tuple(c - p if c > p // 2 else c for c in g)
        out.append(Place(field, "finite", p=p, gen_poly=lifted, e=e, f=deg(g)))
        total += e * deg(g)
    if total != field.degree:
        raise AssertionError("sum of e*f does not match the degree")
    out.sort(key=lambda v: v.sort_key())
    field.places[p] = tuple(out)
    return out


def valuation(x: FieldElement, place: Place) -> int:
    """Exact valuation of x at a finite place.

    x = y / den with y integral, and v(x) = v(y) - e * v_p(den), where v(y)
    counts how often y <- y * beta / p stays integral (Place.beta): each
    step lowers v(y) by one and no other valuation above p.
    """
    if x.is_zero():
        raise ZeroElement("valuation of zero")
    if not place.is_finite():
        raise ValueError("valuation needs a finite place")
    return _valuation(x.field, x.nums, x.den, place, None)


def _valuation(field: NumberField, nums, den: int, place: Place,
               norm_exp: int | None) -> int:
    """valuation of nums / den, nums integral, nonzero and not necessarily
    prime to den: the count above is v(nums) and runs on integers.

    norm_exp, when the caller knows it, is v_p(N(nums)); since it is the
    sum over the places w above p of f_w * w(nums), it bounds v(nums) by
    norm_exp // f, and 0 ends the count before it starts.
    """
    p = place.p
    v_den = place.e * int_valuation(den, p)
    if norm_exp == 0:
        return -v_den
    beta = place.beta()
    y = nums
    k = 0
    while norm_exp is None or k < norm_exp // place.f:
        z = int_mul(field.mult_table, y, beta)
        if any([c % p for c in z]):
            break
        y = tuple([c // p for c in z])
        k += 1
    return k - v_den


def s_norm(x: FieldElement, sconfig: "SConfig") -> Fraction:
    """Exact S-norm: product of normalized absolute values over S.

    Computed through the product formula: the archimedean block is |N(x)|
    and each finite place in S contributes (p^f)^(-v(x)). Returns 0 at 0.
    """
    if x.is_zero():
        return Fraction(0)
    return s_norm_from_norm(x.field, x.nums, x.den,
                            abs(x.numerator_norm()), sconfig)


def s_norm_from_norm(field: NumberField, nums, den: int, nrm: int,
                     sconfig: "SConfig") -> Fraction:
    """The S-norm of the nonzero x = nums / den from nrm = |N(nums)|.

    nums are integers and need not be prime to den: |N(x)| = nrm / den^n,
    and each finite place of S multiplies by (p^f)^(-v(x)), the valuation
    counted on nums with v_p(nrm) as its norm bound.
    """
    num, d = nrm, den**field.degree
    for v in sconfig.finite_places:
        w = _valuation(field, nums, den, v, int_valuation(nrm, v.p))
        if w > 0:
            d *= v.residue_norm()**w
        elif w < 0:
            num *= v.residue_norm()**-w
    return Fraction(num, d)


def ideal_place_valuation(ideal: FractionalIdeal, place: Place) -> int:
    """min over a Z-basis of the element valuations."""
    return min(valuation(b, place) for b in ideal.basis_elements())


def times_prime_powers(ideal: FractionalIdeal, places,
                       exponents) -> FractionalIdeal:
    """ideal * prod P_v^{k_v} over finite places v, exponents of any sign:
    the one product of prime-ideal powers."""
    for v, k in zip(places, exponents):
        if k:
            ideal = ideal * v.ideal_power(k)
    return ideal


def strip_s_part(ideal: FractionalIdeal, sconfig: "SConfig") -> FractionalIdeal:
    """Remove all S-place components; canonical O-part of the O_S-ideal."""
    places = sconfig.finite_places
    return times_prime_powers(ideal, places, [
        -ideal_place_valuation(ideal, v) for v in places])


class SConfig:
    """A finite set of places containing all archimedean ones, plus unit data."""

    def __init__(self, field: NumberField, finite_places, unit_gens=None,
                 torsion=None, verified=False):
        self.field = field
        self.arch_places = tuple(archimedean_places(field))
        fps = sorted(finite_places, key=lambda v: v.sort_key())
        self.finite_places = tuple(fps)
        seen = set()
        for v in fps:
            key = (v.p, v.gen_poly)
            if key in seen:
                raise ValueError("duplicate finite place")
            seen.add(key)
        self.places = self.arch_places + self.finite_places
        self.unit_gens = tuple(unit_gens) if unit_gens else ()
        self.torsion = torsion  # (generator, order)
        self.verified = verified
        self.torus_contexts = {}  # (hnf, den) -> TorusContext, see torus

    @property
    def size(self) -> int:
        return len(self.places)

    def rank(self) -> int:
        return self.size - 1

    def __repr__(self):
        return (f"SConfig(#S={self.size}, finite={[v.p for v in self.finite_places]}, "
                f"verified={self.verified})")


def default_unit_gens(field: NumberField, finite_places) -> list[FieldElement]:
    """Built-in S-unit generators for Q and quadratic fields.

    Q: the rational primes under the finite places. Quadratic fields: the
    fundamental unit (real case) plus a generator of the least principal
    power of each finite prime.
    """
    gens = []
    if field.degree == 1:
        return [field.from_rational(v.p) for v in finite_places]
    if field.degree == 2:
        if field.signature == (2, 0):
            gens.append(fundamental_unit(field))
        for v in finite_places:
            _, alpha = principal_power_generator(v.prime_ideal())
            gens.append(alpha)
        return gens
    if finite_places or field.signature[0] + field.signature[1] > 1:
        raise SearchExhausted(
            "no built-in unit generators beyond Q and quadratic fields; "
            "supply unit generators explicitly")
    return []


def make_sconfig(field: NumberField, primes=(), unit_gens=None,
                 place_indices=None) -> SConfig:
    """Assemble and verify an S-configuration.

    primes: iterable of rational primes; all places above each are included
    unless place_indices[p] selects a subset by index into places_above.
    """
    finite = []
    for p in primes:
        places = places_above(field, p)
        if place_indices and p in place_indices:
            places = [places[i] for i in place_indices[p]]
        finite.extend(places)
    cfg = SConfig(field, finite)
    if unit_gens is None:
        unit_gens = default_unit_gens(field, cfg.finite_places)
    return verify_s_unit_basis(cfg, unit_gens)


def _log_abs_interval(sconfig: SConfig, x: FieldElement, place: Place,
                      err: Fraction) -> Iv:
    """Certified interval around ln|x|_place (normalized absolute value)."""
    if place.is_finite():
        w = valuation(x, place)
        lo, hi = ln_enclosure(Fraction(place.residue_norm()), err)
        return Iv(-w * hi, -w * lo) if w >= 0 else Iv(-w * lo, -w * hi)
    prec = err
    for _ in range(60):
        box = embed(x, prec)
        if place.kind == "real":
            iv = box.reals[place.index].abs()
        else:
            iv = box.complexes[place.index].abs_sq()
        if iv.lo > 0:
            # ln is increasing, so a dyadic enclosure of the magnitude
            # keeps the log enclosure certified; lo stays positive
            lo, hi = dyadic_outward(iv.lo, iv.hi)
            return Iv(ln_enclosure(lo, err / 2)[0], ln_enclosure(hi, err / 2)[1])
        prec /= 16
    raise SearchExhausted("embedding magnitude would not separate from zero")


def verify_s_unit_basis(sconfig: SConfig, gens) -> SConfig:
    """Check the generators really are independent S-units; returns a
    verified configuration carrying them.

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
    torsion = torsion_generator(field)
    return SConfig(field, sconfig.finite_places, unit_gens=gens,
                   torsion=torsion, verified=True)


def _certify_log_rank(sconfig: SConfig, gens):
    """Interval determinant of the log matrix with one place column dropped,
    on integers: the entries over one common denominator D, which scales
    the enclosure by D^n and so keeps whether it holds 0."""
    err = Fraction(1, 2**16)
    for _ in range(8):
        rows = [[_log_abs_interval(sconfig, u, v, err)
                 for v in sconfig.places[:-1]] for u in gens]
        den = lcm(*[x.denominator for row in rows for iv in row
                    for x in (iv.lo, iv.hi)])
        lo, hi = int_interval_det([[(int(iv.lo * den), int(iv.hi * den))
                                    for iv in row] for row in rows])
        if not lo <= 0 <= hi:
            return
        err /= 256
    raise RankUndetermined("log-rank certification ran out of precision")


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
    others = [v for v in sconfig.places if v != w]
    if len(others) == len(sconfig.places):
        raise ValueError("w must belong to S")
    # precompute exact finite-place valuations of the generators
    fin_vals = {v: [valuation(u, v) for u in gens]
                for v in sconfig.finite_places if v != w}
    for radius in range(1, 9):
        for ks in _exponent_vectors(len(gens), radius):
            ok = True
            for v, vals in fin_vals.items():
                if sum(k * val for k, val in zip(ks, vals)) <= 0:
                    ok = False
                    break
            if not ok:
                continue
            eps = sconfig.field.one()
            for k, u in zip(ks, gens):
                if k:
                    eps = eps * u ** k
            if _certify_small_everywhere(sconfig, eps, w):
                return eps
    raise SearchExhausted("no shrinking unit in the exponent search box")


def _exponent_vectors(dim, radius):
    """Vectors with max-norm exactly radius, lexicographic order."""
    for ks in itertools.product(range(-radius, radius + 1), repeat=dim):
        if radius in ks or -radius in ks:
            yield ks


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
        decided = False
        for _ in range(20):
            box = embed(eps, prec)
            iv = (box.reals[v.index].abs() if v.kind == "real"
                  else box.complexes[v.index].abs_sq())
            if iv.hi < 1:
                decided = True
                break
            if iv.lo > 1:
                return False
            prec /= 16
        if not decided:
            return False
    return True
