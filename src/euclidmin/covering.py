"""Adelic boxes, certified norm bounds over them, and covering certificates.

A box is an axis-aligned half-open cell in the coordinates of the ideal
basis (the archimedean block) times one residue class per finite place of S
(a center known modulo P_v^{k_v}). Bounds over a box are computed by exact
interval evaluation at the archimedean places and ultrametric estimates at
the finite ones; a recorded (box, shift, bound) triple can be re-derived by
anyone from the box data alone, which is what makes certificates replayable.

A covering only needs to know on which side of its threshold a screening
bound lies, so it first encloses the bound between two floats, rounded
outward (the bound screen below); floats decide comparisons only and never
reach a recorded bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import floor, inf, lcm, nextafter

from .enumerate import embedding_rows
from .errors import NoCandidates, SearchExhausted
from .fields import FieldElement
from .intervals import Iv
from .places import s_norm, valuation
from .qmath import int_valuation
from .torus import (AdelePoint, TorusContext, congruent_lattice_point,
                    torus_context)

# width of the embedding enclosures behind every recorded bound
BOUND_WIDTH = Fraction(1, 2**24)


@dataclass(frozen=True, slots=True)
class CoverBox:
    """Half-open coordinate cell times finite residue classes."""
    lo: tuple        # Fractions, coordinates over the ideal basis
    hi: tuple
    center: tuple    # integral-basis coordinates (Fractions) of the class center
    exponents: tuple  # k_v >= 0 per finite place of S (in sconfig order)

    def volume_fraction(self, ctx: TorusContext) -> Fraction:
        vol = Fraction(1)
        for a, b in zip(self.lo, self.hi):
            vol *= b - a
        for v, k in zip(ctx.sconfig.finite_places, self.exponents):
            vol /= Fraction(v.residue_norm()) ** k
        return vol

    def center_element(self, ctx: TorusContext) -> FieldElement:
        den = lcm(*[c.denominator for c in self.center])
        return FieldElement(ctx.field, tuple([
            c.numerator * (den // c.denominator) for c in self.center]), den)

    def sort_key(self):
        return (self.lo, self.hi, self.exponents, self.center)


def initial_box(ctx: TorusContext) -> CoverBox:
    n = ctx.field.degree
    return CoverBox(lo=tuple(Fraction(0) for _ in range(n)),
                    hi=tuple(Fraction(1) for _ in range(n)),
                    center=tuple(Fraction(0) for _ in range(n)),
                    exponents=tuple(0 for _ in ctx.sconfig.finite_places))


def normalize_center(ctx: TorusContext, center: FieldElement,
                     exponents) -> tuple:
    """Canonical representative of the center modulo prod P_v^{k_v}."""
    modulus = ctx.s_lattice(exponents, over_order=True)
    coords = modulus.coords_in_basis(center)
    shift = ctx.field.zero()
    for c, b in zip(coords, modulus.basis_elements()):
        f = floor(c)
        if f:
            shift = shift + b * f
    return tuple((center - shift).coords)


def split_arch(box: CoverBox, axis: int) -> list[CoverBox]:
    mid = (box.lo[axis] + box.hi[axis]) / 2
    lo1 = list(box.lo)
    hi1 = list(box.hi)
    hi1[axis] = mid
    lo2 = list(box.lo)
    lo2[axis] = mid
    return [CoverBox(tuple(lo1), tuple(hi1), box.center, box.exponents),
            CoverBox(tuple(lo2), tuple(box.hi), box.center, box.exponents)]


def _residue_reps(ctx: TorusContext, place) -> list[FieldElement]:
    key = (place.p, place.gen_poly)
    if key not in ctx.residue_reps:
        h = place.prime_ideal().hnf
        ranges = [range(h[i][i]) for i in range(ctx.field.degree)]
        reps = [ctx.field.element([Fraction(c) for c in coords])
                for coords in itertools.product(*ranges)]
        if len(reps) != place.residue_norm():
            raise AssertionError("residue representatives miscounted")
        ctx.residue_reps[key] = reps
    return ctx.residue_reps[key]


def _split_scale_element(ctx: TorusContext, place_idx: int,
                         exponents) -> FieldElement:
    """t with v(t) = k_v exactly and w(t) >= k_w at the other S-places."""
    key = (place_idx, tuple(exponents))
    if key not in ctx.split_scales:
        v = ctx.sconfig.finite_places[place_idx]
        ideal = ctx.s_lattice(exponents, over_order=True)
        for b in ideal.basis_elements():
            if valuation(b, v) == exponents[place_idx]:
                ctx.split_scales[key] = b
                break
        else:
            raise SearchExhausted("no exact-valuation element in split ideal")
    return ctx.split_scales[key]


def split_finite(ctx: TorusContext, box: CoverBox, place_idx: int) -> list[CoverBox]:
    """Partition the residue class at one finite place into N(p) children."""
    places = ctx.sconfig.finite_places
    v = places[place_idx]
    t = _split_scale_element(ctx, place_idx, box.exponents)
    center = box.center_element(ctx)
    out = []
    new_exp = list(box.exponents)
    new_exp[place_idx] += 1
    for rep in _residue_reps(ctx, v):
        child_center = center + rep * t
        out.append(CoverBox(box.lo, box.hi,
                            normalize_center(ctx, child_center, new_exp),
                            tuple(new_exp)))
    return out


# -- bounds --------------------------------------------------------------------


def _basis_rows(ctx: TorusContext, width: Fraction):
    if width not in ctx.basis_rows:
        ctx.basis_rows[width] = [embedding_rows(b, width) for b in ctx.basis]
    return ctx.basis_rows[width]


def arch_intervals_for_box(ctx: TorusContext, box: CoverBox, width: Fraction):
    """Per-real-coordinate enclosures of the box's archimedean image."""
    basis_rows = _basis_rows(ctx, width)
    n = ctx.field.degree
    out = []
    for coord in range(n):
        acc = Iv.point(0)
        for j in range(n):
            acc = acc + Iv(box.lo[j], box.hi[j]) * basis_rows[j][coord]
        out.append(acc)
    return out


def _shift_rows(ctx: TorusContext, gamma: FieldElement, width: Fraction):
    key = (gamma.nums, gamma.den, width)
    if key not in ctx.shift_rows:
        if len(ctx.shift_rows) > 4096:
            ctx.shift_rows.clear()
        ctx.shift_rows[key] = embedding_rows(gamma, width)
    return ctx.shift_rows[key]


def norm_bound(ctx: TorusContext, arch, gamma: FieldElement,
               finite: Fraction, width: Fraction = BOUND_WIDTH) -> Fraction:
    """Certified upper bound of N_S(x - gamma)/N_S(a) over a region.

    arch encloses the real coordinates of the archimedean image of x (the
    real places, then re and im per complex place); finite bounds the
    product of |x - gamma|_v over the finite places of S. Every norm bound
    of this module is this product, deterministic in its inputs.
    """
    g = _shift_rows(ctx, gamma, width)
    r1, r2 = ctx.field.signature
    bound = finite
    for i in range(r1):
        bound *= (arch[i] - g[i]).abs().hi
    for i in range(r1, r1 + 2 * r2, 2):
        bound *= ((arch[i] - g[i]).sq() + (arch[i + 1] - g[i + 1]).sq()).hi
    return bound / ctx.s_norm_a


def _finite_factor(terms) -> Fraction:
    """Exact upper bound of prod |x - gamma|_v for x = center mod P_v^k,
    over the (place, center - gamma, k) terms."""
    out = Fraction(1)
    for v, diff, k in terms:
        m = k if diff.is_zero() else min(k, valuation(diff, v))
        out *= Fraction(v.residue_norm()) ** (-m)
    return out


def box_bound(ctx: TorusContext, box: CoverBox, gamma: FieldElement,
              width=BOUND_WIDTH) -> Fraction:
    """Certified upper bound on sup over the box of N_S(x - gamma) / N_S(a).

    Deterministic in (box, gamma, width), which is what certificate replay
    relies on.
    """
    diff = box.center_element(ctx) - gamma
    finite = _finite_factor((v, diff, k) for v, k in
                            zip(ctx.sconfig.finite_places, box.exponents))
    return norm_bound(ctx, arch_intervals_for_box(ctx, box, width), gamma,
                      finite, width)


def box_entry(ctx: TorusContext, box: CoverBox,
              gamma: FieldElement) -> CertEntry:
    """The certificate entry of (box, gamma) with its box_bound.

    box_bound is deterministic, so each (box, shift) pair's entry is built
    once per context and shared by every covering that certifies the box
    with that shift.
    """
    key = (box,) + gamma.nums + (gamma.den,)
    entry = ctx.cert_entries.get(key)
    if entry is None:
        entry = ctx.cert_entries[key] = CertEntry(
            box, gamma.coords, box_bound(ctx, box, gamma))
    return entry


def m_upper_adele(a, sconfig, region: AdelePoint, candidates) -> Fraction:
    """Least certified upper bound of N_S(x - gamma)/N_S(a) over an adele
    region and the candidate shifts; exact when the region is the diagonal
    image of a tagged field element."""
    if not candidates:
        raise NoCandidates("no candidate shifts supplied")
    ctx = torus_context(a, sconfig)
    if region.exact_tag is not None:
        return min(s_norm(region.exact_tag - g, sconfig) / ctx.s_norm_a
                   for g in candidates)
    arch = list(region.arch_real)
    for z in region.arch_complex:
        arch += [z.re, z.im]

    def bound(g):
        finite = _finite_factor((v, center - g, k)
                                for v, center, k in region.finite)
        return norm_bound(ctx, arch, g, finite)

    return min(bound(g) for g in candidates)


# -- the bound screen ----------------------------------------------------------
#
# Floats lo <= q <= hi around an exact rational q: every operation is
# rounded to nearest and then moved one ulp outward with nextafter, which
# covers its rounding error. An enclosure that cannot be formed safely
# (integers beyond 2^53, overflow) comes out as [0, inf], which decides
# nothing and sends the caller to the exact value.

_EXACT_INT = 2**53          # integers up to this size are exact floats
# width of the integral-basis embeddings the screen encloses shifts from
SCREEN_WIDTH = Fraction(1, 2**60)


def enclose(q) -> tuple[float, float]:
    """Floats lo <= q <= hi around a rational or an integer q."""
    f = float(q)            # correctly rounded, so within half an ulp of q
    return nextafter(f, -inf), nextafter(f, inf)


def _screen_rows(ctx: TorusContext):
    """Per context: the float rows the screen works from.

    Returns (basis, omega, delta, inv_norm): basis[j][c] encloses the
    endpoints of the exact rows of the a-part basis at BOUND_WIDTH (those
    behind arch_intervals_for_box), omega[c][k] = (lo, hi) encloses real
    coordinate c of the embedding of the k-th integral basis element, delta
    bounds the width of a shift's exact rows (zero in degree one, where
    embeddings are exact points), and inv_norm encloses 1 / N_S(a).
    """
    if ctx.screen_rows is None:
        basis = [[enclose(iv.lo) + enclose(iv.hi) for iv in row]
                 for row in _basis_rows(ctx, BOUND_WIDTH)]
        rows = [embedding_rows(w, SCREEN_WIDTH)
                for w in ctx.field.integral_basis]
        omega = [[(enclose(row[c].lo)[0], enclose(row[c].hi)[1])
                  for row in rows] for c in range(ctx.field.degree)]
        delta = 0.0 if ctx.field.degree == 1 else float(BOUND_WIDTH)
        ctx.screen_rows = (basis, omega, delta, enclose(1 / ctx.s_norm_a))
    return ctx.screen_rows


def _product_enclosure(x, y) -> tuple[float, float]:
    """Enclosure of the product of two numbers enclosed by x and y."""
    ps = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return nextafter(min(ps), -inf), nextafter(max(ps), inf)


def arch_enclosure(ctx: TorusContext, box: CoverBox) -> list:
    """Per real coordinate, enclosures (lo_lo, lo_hi, hi_lo, hi_hi) of the
    endpoints of arch_intervals_for_box(ctx, box, BOUND_WIDTH)."""
    basis = _screen_rows(ctx)[0]
    xs = [(enclose(lo), enclose(hi)) for lo, hi in zip(box.lo, box.hi)]
    out = []
    for c in range(ctx.field.degree):
        lo_l = lo_h = hi_l = hi_h = 0.0
        for (x1, x2), row in zip(xs, basis):
            b = row[c]
            # the exact product interval runs from the least to the
            # greatest of the four corner products
            corners = [_product_enclosure(x, y)
                       for x in (x1, x2) for y in (b[:2], b[2:])]
            lo_l = nextafter(lo_l + min(p[0] for p in corners), -inf)
            lo_h = nextafter(lo_h + min(p[1] for p in corners), inf)
            hi_l = nextafter(hi_l + max(p[0] for p in corners), -inf)
            hi_h = nextafter(hi_h + max(p[1] for p in corners), inf)
        out.append((lo_l, lo_h, hi_l, hi_h))
    return out


def profile_factor(ctx: TorusContext, profile) -> tuple[int, int]:
    """Integers (num, den) with num / den = prod Np^-m_v, which bounds the
    finite part of the norm over a box for shifts of a congruence profile."""
    num = den = 1
    for v, m in zip(ctx.sconfig.finite_places, profile):
        if m > 0:
            den *= v.residue_norm() ** m
        elif m < 0:
            num *= v.residue_norm() ** -m
    return num, den


def screen_scale(ctx: TorusContext, num: int, den: int) -> tuple[float, float]:
    """Enclosure of (num / den) / N_S(a)."""
    inv_lo, inv_hi = _screen_rows(ctx)[3]
    f = num / den           # correctly rounded, so within half an ulp
    return (nextafter(nextafter(f, -inf) * inv_lo, -inf),
            nextafter(nextafter(f, inf) * inv_hi, inf))


def bound_enclosure(ctx: TorusContext, arch, gamma: FieldElement,
                    scale) -> tuple[float, float]:
    """Floats lo <= norm_bound(ctx, exact arch, gamma, finite) <= hi.

    arch is arch_enclosure of the box and scale encloses finite / N_S(a).
    The shift's exact rows come from embed at BOUND_WIDTH: they hold the
    true embedding and are at most delta wide, so each endpoint lies within
    delta of the enclosure of the true embedding computed here.
    """
    _, omega, delta, _ = _screen_rows(ctx)
    den = gamma.den
    nums = gamma.nums
    if den > _EXACT_INT or any(abs(a) > _EXACT_INT for a in nums):
        return 0.0, inf
    r1, _ = ctx.field.signature
    lo, hi = scale
    sq_lo = sq_hi = 0.0
    for c, (rows, (al_l, al_h, ah_l, ah_h)) in enumerate(zip(omega, arch)):
        s_lo = s_hi = 0.0
        for a, (wl, wh) in zip(nums, rows):
            if a > 0:
                s_lo = nextafter(s_lo + nextafter(a * wl, -inf), -inf)
                s_hi = nextafter(s_hi + nextafter(a * wh, inf), inf)
            elif a < 0:
                s_lo = nextafter(s_lo + nextafter(a * wh, -inf), -inf)
                s_hi = nextafter(s_hi + nextafter(a * wl, inf), inf)
        gl = nextafter(s_lo / den, -inf)
        gh = nextafter(s_hi / den, inf)
        # exact rows [g_lo, g_hi]: g_lo in [gl - delta, gh], g_hi in
        # [gl, gh + delta]; norm_bound takes max(|a_lo - g_hi|,
        # |a_hi - g_lo|) per coordinate
        d1l = nextafter(al_l - nextafter(gh + delta, inf), -inf)
        d1h = nextafter(al_h - gl, inf)
        d2l = nextafter(ah_l - gh, -inf)
        d2h = nextafter(ah_h - nextafter(gl - delta, -inf), inf)
        t_lo = max(d1l, -d1h, d2l, -d2h, 0.0)
        t_hi = max(-d1l, d1h, -d2l, d2h)
        if c < r1:
            lo = nextafter(lo * t_lo, -inf)
            hi = nextafter(hi * t_hi, inf)
        else:
            # a complex place: the sum of the squares of its two coordinates
            sq_lo = nextafter(sq_lo + nextafter(t_lo * t_lo, -inf), -inf)
            sq_hi = nextafter(sq_hi + nextafter(t_hi * t_hi, inf), inf)
            if (c - r1) % 2:
                lo = nextafter(lo * sq_lo, -inf)
                hi = nextafter(hi * sq_hi, inf)
                sq_lo = sq_hi = 0.0
    if not 0.0 <= lo <= hi < inf:
        return 0.0, inf
    return lo, hi


# -- candidate shifts ----------------------------------------------------------


def candidate_shifts(ctx: TorusContext, box: CoverBox, profile,
                     corner_radius: int = 1) -> list[FieldElement]:
    """Nearby elements of the S-ideal matching a congruence profile.

    profile[v] = m_v: m_v > 0 demands gamma = center mod P_v^{m_v} (and then
    |x-gamma|_v <= Np^{-m_v} over a box of depth k_v >= m_v); m_v <= 0 allows
    a denominator, with |x-gamma|_v <= Np^{-m_v}. The candidates lie in the
    affine family of the a-part times prod P_v^{m_v}.
    """
    field = ctx.field
    lattice = ctx.s_lattice(profile)
    if any(m > 0 for m in profile):
        gamma0 = _congruent_point(ctx, box.center_element(ctx), profile)
        if gamma0 is None:
            return []
    else:
        gamma0 = field.zero()
    # arch target: the box midpoint, sum_j (lo_j + hi_j) / 2 * basis_j
    mid_den = lcm(*[x.denominator for x in box.lo + box.hi])
    mids = [lo.numerator * (mid_den // lo.denominator)
            + hi.numerator * (mid_den // hi.denominator)
            for lo, hi in zip(box.lo, box.hi)]
    target = FieldElement(field, tuple([
        sum([m * h for m, h in zip(mids, row)]) for row in ctx.a_part.hnf]),
        2 * mid_den * ctx.a_part.den)
    w, d = lattice.int_coords(target - gamma0)
    base = [_round_half_even(c, d) for c in w]
    # gamma0 + H z / den over the common denominator, z = base + offsets,
    # the last coordinate of z running fastest
    den = lcm(gamma0.den, lattice.den)
    scale = den // lattice.den
    cols = [[row[j] * scale for row in lattice.hnf] for j in range(len(base))]
    start = [a * (den // gamma0.den) for a in gamma0.nums]
    out = []
    steps = range(-corner_radius, corner_radius + 1)
    for offsets in itertools.product(steps, repeat=len(base)):
        nums = start
        for z0, dz, col in zip(base, offsets, cols):
            z = z0 + dz
            if z:
                nums = [a + z * c for a, c in zip(nums, col)]
        out.append(FieldElement(field, tuple(nums), den))
    return out


def _round_half_even(num: int, den: int) -> int:
    """round(Fraction(num, den)) for den > 0: nearest, ties to even."""
    q, r = divmod(num, den)
    if 2 * r > den or (2 * r == den and q % 2):
        return q + 1
    return q


def _congruent_point(ctx: TorusContext, center: FieldElement, profile):
    """Element of the S-ideal congruent to center at the positive depths."""
    key = center.nums + (center.den,) + profile
    if key not in ctx.congruent_points:
        places = ctx.sconfig.finite_places
        lattice = ctx.s_lattice([min(m, 0) for m in profile])
        d0 = lattice.den
        # d0 * gamma = d0 * center modulo P_v^{m_v + e * v_p(d0)}, m_v > 0
        modulus = ctx.s_lattice(
            [m + int_valuation(d0, v.p) * v.e if m > 0 else 0
             for v, m in zip(places, profile)], over_order=True)
        g = congruent_lattice_point(lattice, d0, modulus, center * d0)
        # kept as integers (numerators, then the denominator), or None
        ctx.congruent_points[key] = None if g is None else g.nums + (g.den,)
    point = ctx.congruent_points[key]
    if point is None:
        return None
    return FieldElement(ctx.field, point[:-1], point[-1])


def profiles_for_box(ctx: TorusContext, box: CoverBox, neg_depth: int = 2,
                     cap: int = 48):
    """Deterministic profile schedule, most congruent first.

    The menu per place keeps the deepest congruences, the free level, and a
    few denominator levels; intermediate depths are rarely optimal and only
    cost bound evaluations (never soundness).
    """
    places = ctx.sconfig.finite_places
    if not places:
        return [()]
    menus = []
    for v, k in zip(places, box.exponents):
        menu = sorted({k, max(k - 1, 0), max(k - 2, 0), 0, -1, -neg_depth},
                      reverse=True)
        menus.append([m for m in menu if m <= k])
    # most congruent profiles first: larger sum of depths first
    out = sorted(itertools.product(*menus), key=lambda pr: (-sum(pr), pr))
    return out[:cap]


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CertEntry:
    box: CoverBox
    gamma_coords: tuple     # integral-basis coordinates of the shift
    bound: Fraction         # certified bound on sup N_S(x-gamma)/N_S(a)


@dataclass(frozen=True)
class CoveringCertificate:
    threshold: Fraction
    entries: tuple          # CertEntry, canonically sorted
    ideal_hnf: tuple
    ideal_den: int

    def __len__(self):
        return len(self.entries)


class CoveringState:
    """Resumable branch-and-bound state: certified entries, open boxes."""

    def __init__(self, entries=(), boxes=None, processed=0):
        self.entries = list(entries)
        self.boxes = list(boxes) if boxes is not None else None
        self.processed = processed


class Unresolved:
    """Covering attempt that stopped without a certificate.

    Either the budget ran out, or a surviving box held a class `witness`
    whose exact minimum `witness_minimum` is at least the threshold, which
    proves that no certificate at that threshold exists. The surviving boxes
    localize the high-minimum region; `state` resumes the covering.
    """

    def __init__(self, state: CoveringState, witness=None,
                 witness_minimum=None):
        self.state = state
        self.boxes = state.boxes
        self.processed = state.processed
        self.witness = witness
        self.witness_minimum = witness_minimum

    def __repr__(self):
        found = ("" if self.witness_minimum is None
                 else f", witness value {self.witness_minimum.value}")
        return (f"Unresolved({len(self.boxes)} boxes, "
                f"processed={self.processed}{found})")


def gamma_in_s_ideal(ctx: TorusContext, gamma: FieldElement) -> bool:
    """Membership of gamma in the S-ideal generated by the a-part."""
    if gamma.is_zero():
        return True
    lattice = ctx.s_lattice([min(valuation(gamma, v), 0)
                             for v in ctx.sconfig.finite_places])
    return lattice.contains(gamma)


def verify_certificate(ctx: TorusContext, cert: CoveringCertificate,
                       threshold=None) -> None:
    """Replay a covering certificate; raises AssertionError on any defect.

    Checks: bounds below the threshold, bit-exact bound re-derivation from
    (box, gamma), shifts inside the S-ideal, boxes inside the fundamental
    domain, pairwise disjointness, and total measure exactly 1.
    """
    t = Fraction(threshold) if threshold is not None else cert.threshold
    if cert.threshold > t:
        raise AssertionError("certificate threshold exceeds requested one")
    if (cert.ideal_hnf, cert.ideal_den) != (ctx.a_part.hnf, ctx.a_part.den):
        raise AssertionError("certificate is for a different ideal")
    total = Fraction(0)
    n = ctx.field.degree
    nfin = len(ctx.sconfig.finite_places)
    for e in cert.entries:
        box = e.box
        if (len(box.lo) != n or len(box.hi) != n or len(box.center) != n
                or len(box.exponents) != nfin):
            raise AssertionError("box shape mismatch")
        for a, b in zip(box.lo, box.hi):
            if not (0 <= a < b <= 1):
                raise AssertionError("box outside the fundamental parallelepiped")
        if any(k < 0 for k in box.exponents):
            raise AssertionError("negative finite precision")
        center = box.center_element(ctx)
        if not center.is_integral():
            raise AssertionError("box center is not integral")
        if not e.bound < t:
            raise AssertionError(f"bound {e.bound} not below threshold {t}")
        gamma = ctx.field.element(e.gamma_coords)
        if not gamma_in_s_ideal(ctx, gamma):
            raise AssertionError("shift is not in the S-ideal")
        replayed = box_bound(ctx, box, gamma)
        if replayed != e.bound:
            raise AssertionError(
                f"bound replay mismatch: recorded {e.bound}, got {replayed}")
        total += box.volume_fraction(ctx)
    if total != 1:
        raise AssertionError(f"boxes measure {total}, expected exactly 1")
    _check_disjoint(ctx, cert.entries)


def _classes_compatible(ctx, box1, box2) -> bool:
    """Whether the two finite residue classes intersect."""
    diff = box1.center_element(ctx) - box2.center_element(ctx)
    for v, k1, k2 in zip(ctx.sconfig.finite_places, box1.exponents,
                         box2.exponents):
        k = min(k1, k2)
        if k == 0:
            continue
        if not diff.is_zero() and valuation(diff, v) < k:
            return False
    return True


def _check_disjoint(ctx, entries):
    """Pairwise disjointness via a sweep on the first coordinate."""
    idx = sorted(range(len(entries)), key=lambda i: entries[i].box.lo[0])
    compat_cache = {}
    active = []
    for i in idx:
        b = entries[i].box
        active = [j for j in active if entries[j].box.hi[0] > b.lo[0]]
        for j in active:
            ob = entries[j].box
            if all(a < d and c < b_ for a, b_, c, d in
                   zip(b.lo, b.hi, ob.lo, ob.hi)):
                key = (b.center, b.exponents, ob.center, ob.exponents)
                if key not in compat_cache:
                    compat_cache[key] = _classes_compatible(ctx, b, ob)
                if compat_cache[key]:
                    raise AssertionError("overlapping boxes in certificate")
        active.append(i)
