"""The compact quotient of the S-adele block by an ideal lattice.

Provides canonical reduction of field elements into the fundamental domain
(the half-open parallelepiped of the ideal's HNF basis times the local
integer rings), torsion coset representatives, finite unit orbits, the exact
character pairing into Q/Z, and the trace-dual ideal.

shift_into_depths, the one solver for S-ideal points, serves reduce_mod,
m_exact's enumeration offset and the covering's candidate shifts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cached_property
from math import floor, gcd, lcm

from .errors import UnverifiedUnits
from .fields import FieldElement, FractionalIdeal, ideal_dual, ideal_norm
from .hnf import echelon_mod_lattice, solve_echelon
from .places import (Place, SConfig, places_above, strip_s_part,
                     times_prime_powers, valuation)
from .qmath import int_valuation


class QmodZ:
    """Exact element of Q/Z, stored as its representative in [0, 1)."""

    __slots__ = ("value",)

    def __init__(self, value):
        v = Fraction(value)
        self.value = v - floor(v)

    def __add__(self, other):
        return QmodZ(self.value + other.value)

    def __neg__(self):
        return QmodZ(-self.value)

    def __sub__(self, other):
        return QmodZ(self.value - other.value)

    def __eq__(self, other):
        if isinstance(other, QmodZ):
            return self.value == other.value
        return self.value == QmodZ(Fraction(other)).value

    def __hash__(self):
        return hash(self.value)

    def is_zero(self):
        return self.value == 0

    def __repr__(self):
        return f"QmodZ({self.value})"


class TorusContext:
    """Cached working data for one (ideal, S) pair.

    Besides the a-part and its basis, it holds the caches that the covering
    and minima modules fill for this pair; each depends on (ideal, S) alone.
    """

    def __init__(self, a: FractionalIdeal, sconfig: SConfig):
        self.sconfig = sconfig
        self.field = a.field
        self.a_part = strip_s_part(a, sconfig)
        self.basis = self.a_part.basis_elements()
        self.s_norm_a = ideal_norm(self.a_part)
        self.lattices = {}          # (over_order, exponents) -> s_lattice
        self.residue_reps = {}      # (p, gen_poly) -> representatives of O/P
        self.split_scales = {}      # (place index, exponents) -> element
        self.basis_rows = None      # embedding rows of the basis
        self.shift_rows = {}        # (nums, den) -> embedding row
        self.congruences = {}       # (k, depths, scale) -> CongruenceSystem
        self.cert_entries = {}      # box, shift nums, den -> CertEntry
        self.unit_factors = None    # per-place unit box factors of m_exact

    def s_lattice(self, exponents, over_order: bool = False) -> FractionalIdeal:
        """a-part (or O) times prod of P_v^{k_v} over the finite places of S.

        exponents follow sconfig.finite_places and may be negative.
        """
        key = (over_order, tuple(exponents))
        out = self.lattices.get(key)
        if out is None:
            out = self.lattices[key] = times_prime_powers(
                self.field.maximal_order() if over_order else self.a_part,
                self.sconfig.finite_places, exponents)
        return out

    @cached_property
    def corners(self) -> tuple:
        """The 2^n corner shifts of the basis cell, minus the sum of each
        subset of the basis, in itertools.product((0, -1), ...) order: each
        as (integer numerators over a_part.den, multiplication matrix)."""
        field = self.field
        out = []
        for corner in itertools.product((0, -1), repeat=field.degree):
            nums = tuple([sum([c * h for c, h in zip(corner, row)])
                          for row in self.a_part.hnf])
            out.append((nums, field.int_mult_matrix(nums)))
        return tuple(out)


def torus_context(a: FractionalIdeal, sconfig: SConfig) -> TorusContext:
    """The context of (a, S). sconfig keeps the one of the ideal asked for
    last; a context for another ideal replaces it, and a replaced context
    is rebuilt identically when asked again."""
    key = (a.hnf, a.den)
    ctx = sconfig.torus_contexts.get(key)
    if ctx is None:
        sconfig.torus_contexts.clear()
        ctx = sconfig.torus_contexts[key] = TorusContext(a, sconfig)
    return ctx


class CongruenceSystem:
    """g in a lattice with scale * g - target in an integral modulus.

    The integer linear system over the integral basis, the HNF columns of
    the lattice (times scale) and of the modulus brought to one common
    denominator, is put in column echelon form once; each target is then
    one back-solve.
    """

    def __init__(self, lattice: FractionalIdeal, scale: int,
                 modulus: FractionalIdeal):
        self.lattice = lattice
        self.den = lcm(lattice.den, modulus.den)
        n = lattice.field.degree
        to_lattice = scale * (self.den // lattice.den)
        to_modulus = self.den // modulus.den
        self.echelon = echelon_mod_lattice(
            [[row[j] * to_lattice for row in lattice.hnf] for j in range(n)],
            [[row[j] * to_modulus for row in modulus.hnf] for j in range(n)])

    def solve(self, target: FieldElement):
        """The g for this target, or None when no such g exists."""
        # the system's entries are integers, so den * target must be too
        rhs = [x * self.den for x in target.nums]
        if any(x % target.den for x in rhs):
            return None
        u = solve_echelon(self.echelon, [x // target.den for x in rhs])
        return None if u is None else self.lattice.point(u)


def reduce_mod(a: FractionalIdeal, sconfig: SConfig, xi: FieldElement):
    """Canonical representative of xi modulo the S-ideal of a.

    Returns (rho, gamma) with xi = rho + gamma, gamma in the S-ideal,
    v(rho) >= 0 at every finite place of S, and the coordinates of rho over
    the ideal basis inside [0, 1). Idempotent by construction.
    """
    ctx = torus_context(a, sconfig)
    field = ctx.field
    rho = xi
    gamma = field.zero()
    if not xi.is_zero() and any(valuation(xi, v) < 0
                                for v in sconfig.finite_places):
        gamma = shift_into_depths(ctx, xi, (0,) * len(sconfig.finite_places))
        rho = xi - gamma
        if not rho.is_zero() and any(valuation(rho, v) < 0
                                     for v in sconfig.finite_places):
            raise AssertionError("finite reduction failed")
    coords = ctx.a_part.coords_in_basis(rho)
    shift = field.zero()
    for c, b in zip(coords, ctx.basis):
        k = floor(c)
        if k:
            shift = shift + b * k
    rho = rho - shift
    gamma = gamma + shift
    return rho, gamma


def shift_into_depths(ctx: TorusContext, x: FieldElement,
                      depths) -> FieldElement:
    """gamma in the S-ideal with v(x - gamma) >= depths[v] at each finite
    place v of S, for any x and depths of any sign.

    gamma ranges over L = ctx.s_lattice(k), k_v = min(depths[v], v(x), 0).
    Where depths[v] > k_v, scale = lcm(L.den, x.den) makes the condition
    scale * gamma = scale * x modulo P_v^{depths[v] + e_v v_p(scale)}, an
    integral congruence that the Chinese remainder theorem solves; one
    system per (k, depths, scale) is kept in ctx.congruences.
    """
    places = ctx.sconfig.finite_places
    # v(x) < 0 only above a prime of x.den
    k = tuple([min(depth, 0) if x.den % v.p else min(depth, valuation(x, v), 0)
               for v, depth in zip(places, depths)])
    lattice = ctx.s_lattice(k)
    scale = lcm(lattice.den, x.den)
    key = (k, tuple(depths), scale)
    system = ctx.congruences.get(key)
    if system is None:
        modulus = ctx.s_lattice(
            [depth + int_valuation(scale, v.p) * v.e if depth > kv else 0
             for v, depth, kv in zip(places, depths, k)], over_order=True)
        system = ctx.congruences[key] = CongruenceSystem(lattice, scale,
                                                         modulus)
    gamma = system.solve(x * scale)
    if gamma is None:
        raise AssertionError("finite shift system unsolvable")
    return gamma


def torsion_reps(a: FractionalIdeal, m: int, sconfig: SConfig,
                 primitive: bool = False):
    """The m^n coset representatives of (1/m)a modulo a.

    Pure lattice quotient over the a-part of the ideal (its prime-to-S
    part): representatives have coordinates c/m in [0, 1) over its HNF
    basis, so they are exactly m^n distinct reduced points of the
    parallelepiped, in lexicographic order of c. With primitive, only the
    classes of exact order m (gcd(m, c) = 1).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lattice = torus_context(a, sconfig).a_part
    return [lattice.point(coords, m)
            for coords in itertools.product(range(m), repeat=a.field.degree)
            if not primitive or gcd(m, *coords) == 1]


def orbit_with_units(a: FractionalIdeal, sconfig: SConfig, xi: FieldElement):
    """The finite orbit of [xi] under the verified S-units.

    Returns (rep, unit) pairs sorted by the reduced representative, where
    unit carries the reduced class of xi onto rep. Closure under forward
    multiplication by the generators and the torsion generator; this
    reaches the full group orbit because every generator permutes the
    finite set of classes with bounded denominator.
    """
    if not sconfig.verified:
        raise UnverifiedUnits("orbit needs a verified S-unit basis")
    rho0, _ = reduce_mod(a, sconfig, xi)
    gens = list(sconfig.unit_gens)
    if sconfig.torsion is not None:
        gens.append(sconfig.torsion[0])
    # elements are canonical and hash on (nums, den): one key per class
    seen = {rho0: (rho0, sconfig.field.one())}
    frontier = [(rho0, sconfig.field.one())]
    while frontier:
        nxt = []
        for x, u in frontier:
            for g in gens:
                y, _ = reduce_mod(a, sconfig, g * x)
                if y not in seen:
                    seen[y] = pair = (y, g * u)
                    nxt.append(pair)
        frontier = nxt
    return sorted(seen.values(), key=lambda pair: pair[0].coords)


def orbit(a: FractionalIdeal, sconfig: SConfig, xi: FieldElement):
    """The finite orbit of [xi] under the verified S-units, as sorted reps."""
    return [rep for rep, _ in orbit_with_units(a, sconfig, xi)]


# -- character layer ----------------------------------------------------------


def local_trace_polar(x: FieldElement, place: Place) -> Fraction:
    """Polar part (in [0,1)) of the local trace of x at a finite place.

    Every place w above p has e_w <= n, so w(x) >= -N for N = n * v_p(den).
    The CRT through the prime ideals gives y in P_w^N for each w other than
    v with y - 1 in P_v^N; then x(y - 1) and xy are integral at v and at
    each other w, so Tr_v(x) = Tr(xy) mod Z_p, and the polar part is that
    of the rational Tr(xy) at p.
    """
    field = place.field
    p = place.p
    depth = field.degree * int_valuation(x.den, p)
    if depth == 0:
        return Fraction(0)
    order = field.maximal_order()
    others = [w for w in places_above(field, p) if w != place]
    y = CongruenceSystem(
        times_prime_powers(order, others, [depth] * len(others)), 1,
        times_prime_powers(order, [place], [depth])).solve(field.one())
    if y is None:
        raise AssertionError("no local idempotent at this place")
    t = (x * y).trace()
    k = int_valuation(t.denominator, p)
    pk = p**k
    return Fraction(t.numerator * pow(t.denominator // pk, -1, pk) % pk, pk)


def char_pair(alpha: FieldElement, xi: FieldElement, sconfig: SConfig) -> QmodZ:
    """Exact phase of the standard character pairing of alpha and xi.

    The archimedean block of the character contributes the global trace;
    each finite place of S subtracts the polar part of the local trace.
    With that sign the character is trivial on the S-integers, which is
    what makes the trace-dual ideal the character dual.
    """
    prod = alpha * xi
    phase = QmodZ(prod.trace())
    for v in sconfig.finite_places:
        phase = phase - QmodZ(local_trace_polar(prod, v))
    return phase


def s_trace_dual(a: FractionalIdeal, sconfig: SConfig) -> FractionalIdeal:
    """The dual ideal a^perp = a^{-1} * D^{-1}, prime-to-S convention."""
    return strip_s_part(ideal_dual(torus_context(a, sconfig).a_part), sconfig)
