"""Places of a number field, exact S-norms, and S-configurations.

Absolute values are normalized so the product formula holds exactly over Q:
real places contribute |x|, complex places the squared modulus, and a finite
place above p with residue degree f contributes (p^f)^(-v(x)). With that
normalization N_S of a nonzero element is an exact rational.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import IndexDivisor, NotPrime, SearchExhausted, ZeroElement
from .fields import (FieldElement, FractionalIdeal, NumberField,
                     ideal_from_gens, ideal_norm, int_mul)
from .hnf import fp_kernel
from .polynomials import deg, factor_mod_p
from .qmath import int_valuation, is_prime


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

    def magnitude(self, box):
        """The interval of |x| at this archimedean place from an embedding
        box of x: the absolute value when real, the squared modulus when
        complex."""
        return (box.reals[self.index].abs() if self.kind == "real"
                else box.complexes[self.index].abs_sq())

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


def valuation(x: FieldElement, place: Place, cap: int | None = None) -> int:
    """Exact valuation of x at a finite place, or min(v(x), cap) when a cap
    is given.

    x = y / den with y integral, and v(x) = v(y) - e * v_p(den), where v(y)
    counts how often y <- y * beta / p stays integral (Place.beta): each
    step lowers v(y) by one and no other valuation above p. Under a cap the
    count stops after cap + e * v_p(den) steps.
    """
    if x.is_zero():
        raise ZeroElement("valuation of zero")
    if not place.is_finite():
        raise ValueError("valuation needs a finite place")
    v_den = place.e * int_valuation(x.den, place.p)
    return _valuation(x.field, x.nums, place,
                      None if cap is None else cap + v_den) - v_den


def _valuation(field: NumberField, nums, place: Place,
               steps: int | None) -> int:
    """v(nums) for integral nonzero nums, or min(v(nums), steps) when steps
    is given: the count above, on integers, stops after steps steps."""
    p = place.p
    beta = place.beta()
    y = nums
    k = 0
    while steps is None or k < steps:
        z = int_mul(field.mult_table, y, beta)
        if any([c % p for c in z]):
            break
        y = tuple([c // p for c in z])
        k += 1
    return k


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
    counted on nums. v_p(nrm) is the sum over the places w above p of
    f_w * w(nums), so v(nums) is at most v_p(nrm) // f, the count's steps.
    """
    num, d = nrm, den**field.degree
    for v in sconfig.finite_places:
        w = (_valuation(field, nums, v, int_valuation(nrm, v.p) // v.f)
             - v.e * int_valuation(den, v.p))
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
    """A finite set of places containing all archimedean ones, plus the unit
    data that units.verify_s_unit_basis attaches."""

    def __init__(self, field: NumberField, finite_places):
        self.field = field
        self.arch_places = tuple(archimedean_places(field))
        fps = sorted(finite_places, key=lambda v: v.sort_key())
        self.finite_places = tuple(fps)
        if len({(v.p, v.gen_poly) for v in fps}) != len(fps):
            raise ValueError("duplicate finite place")
        self.places = self.arch_places + self.finite_places
        self.unit_gens = ()
        self.torsion = None  # (generator, order)
        self.verified = False
        self.torus_contexts = {}  # (hnf, den) -> TorusContext, see torus

    @property
    def size(self) -> int:
        return len(self.places)

    def rank(self) -> int:
        return self.size - 1

    def __repr__(self):
        return (f"SConfig(#S={self.size}, finite={[v.p for v in self.finite_places]}, "
                f"verified={self.verified})")


def s_places(field: NumberField, primes=(), place_indices=None) -> SConfig:
    """The places of S, without unit data: all archimedean places and the
    finite places above each rational prime in primes, or the subset that
    place_indices[p] selects by index into places_above."""
    finite = []
    for p in primes:
        places = places_above(field, p)
        if place_indices and p in place_indices:
            places = [places[i] for i in place_indices[p]]
        finite.extend(places)
    return SConfig(field, finite)


def make_sconfig(field: NumberField, primes=(), unit_gens=None,
                 place_indices=None) -> SConfig:
    """The places of S (s_places) with a verified S-unit basis."""
    return add_unit_basis(s_places(field, primes, place_indices), unit_gens)


def add_unit_basis(sconfig: SConfig, unit_gens=None) -> SConfig:
    """sconfig (from s_places) with a verified S-unit basis attached in place:
    unit_gens, or when None the built-in ones (units.default_unit_gens)."""
    from .units import default_unit_gens, verify_s_unit_basis
    if unit_gens is None:
        unit_gens = default_unit_gens(sconfig.field, sconfig.finite_places)
    return verify_s_unit_basis(sconfig, unit_gens)
