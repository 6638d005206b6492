"""Adelic boxes, certified norm bounds over them, and covering certificates.

A box is an axis-aligned half-open cell in the coordinates of the ideal
basis (the archimedean block) times one residue class per finite place of S
(a center known modulo P_v^{k_v}). Bounds over a box are computed by exact
interval evaluation at the archimedean places and ultrametric estimates at
the finite ones, all on integers over common denominators. bound_pair, the
one evaluator of recorded bounds, returns each as an integer pair: the
covering records it as a Fraction (box_bound), and verify_certificate
re-derives every entry's bound with it, so a recorded (box, shift, bound)
triple can be re-derived by anyone from the box data alone, which is what
makes certificates replayable.

A covering only needs to know on which side of its threshold a screening
bound lies, so it first encloses the bound between two integers on the
dyadic grid of lattice enumeration (the bound screen below), which decides
comparisons only and never reaches a recorded bound.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple

from .enumerate import GRID_BITS, embedding_rows, grid_row
from .errors import SearchExhausted
from .fields import FieldElement
from .places import valuation
from .qmath import ceil_scaled, rat_str
from .torus import TorusContext, shift_into_depths

# width of the embedding enclosures behind every recorded bound
BOUND_WIDTH = Fraction(1, 2**24)
CORNER_RADIUS = 1       # lattice steps around the box midpoint per coordinate
PROFILE_NEG_DEPTH = 2   # the deepest denominator level of a profile
PROFILE_CAP = 48        # profiles tried per box
PROFILE_SCHEDULES = 256  # schedules kept, one per (residue norms, depths)
# The default budget of covering_verify, compute_M and decide_norm_euclidean,
# and of every command line run: one unit pays for one covering box or one
# m_exact call.
BUDGET = 20000


class CoverBox(NamedTuple):
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
        return ctx.field.element(self.center)

    def sort_key(self):
        return (self.lo, self.hi, self.exponents, self.center)


def initial_box(ctx: TorusContext) -> CoverBox:
    n = ctx.field.degree
    return CoverBox(lo=tuple(Fraction(0) for _ in range(n)),
                    hi=tuple(Fraction(1) for _ in range(n)),
                    center=tuple(Fraction(0) for _ in range(n)),
                    exponents=tuple(0 for _ in ctx.sconfig.finite_places))


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
    modulus = ctx.s_lattice(new_exp, over_order=True)
    for rep in _residue_reps(ctx, v):
        child_center = modulus.reduce(center + rep * t)
        out.append(CoverBox(box.lo, box.hi, child_center.coords,
                            tuple(new_exp)))
    return out


# -- bounds --------------------------------------------------------------------


def _scaled(x, den: int) -> int:
    """The numerator of the rational x over den, a multiple of its own."""
    return x.numerator * (den // x.denominator)


def _int_rows(ctx: TorusContext, rows) -> list:
    """Rows of intervals per real coordinate as (lo, hi, den) integers, den
    shared by every row in a coordinate and by a complex place's two."""
    dens = [lcm(*[x.denominator for iv in col for x in (iv.lo, iv.hi)])
            for col in zip(*rows)]
    for c in range(ctx.field.signature[0], len(dens), 2):
        dens[c] = dens[c + 1] = lcm(dens[c], dens[c + 1])
    return [[(_scaled(iv.lo, d), _scaled(iv.hi, d), d)
             for iv, d in zip(row, dens)] for row in rows]


def _basis_rows(ctx: TorusContext):
    if ctx.basis_rows is None:
        ctx.basis_rows = _int_rows(ctx, [embedding_rows(b, BOUND_WIDTH)
                                         for b in ctx.basis])
    return ctx.basis_rows


def box_arch(ctx: TorusContext, box: CoverBox) -> list:
    """arch_image of the box, its coordinates over their least common
    denominator."""
    d = lcm(*[x.denominator for x in box.lo + box.hi])
    return arch_image(ctx, [_scaled(x, d) for x in box.lo],
                      [_scaled(x, d) for x in box.hi], d)


def arch_image(ctx: TorusContext, lo, hi, d: int) -> list:
    """(lo, hi, den) per real coordinate: the exact interval sum over j of
    [lo_j, hi_j] / d times basis row j, which encloses the image of the box
    with integer coordinates lo_j, hi_j over d."""
    rows = _basis_rows(ctx)
    out = []
    for c in range(len(lo)):
        lo_c = hi_c = 0
        for x1, x2, row in zip(lo, hi, rows):
            b1, b2, dc = row[c]
            ps = (x1 * b1, x1 * b2, x2 * b1, x2 * b2)
            lo_c += min(ps)
            hi_c += max(ps)
        out.append((lo_c, hi_c, d * dc))
    return out


def _shift_rows(ctx: TorusContext, gamma: FieldElement):
    key = (gamma.nums, gamma.den)
    rows = ctx.shift_rows.get(key)
    if rows is None:
        if len(ctx.shift_rows) > 4096:
            ctx.shift_rows.clear()
        rows = ctx.shift_rows[key] = _int_rows(
            ctx, [embedding_rows(gamma, BOUND_WIDTH)])[0]
    return rows


def exact_pair(ctx: TorusContext, arch, gamma: FieldElement,
               num: int, den: int) -> tuple[int, int]:
    """Certified upper bound of N_S(x - gamma)/N_S(a) over a region, as
    integers (num, den) with den > 0.

    arch, (lo, hi, den) per real coordinate (the real places, then re and
    im per complex place), encloses the archimedean image of x; num / den
    bounds the product of |x - gamma|_v over the finite places of S. Every
    norm bound of this module is this product, deterministic in its inputs.
    """
    r1 = ctx.field.signature[0]
    num *= ctx.s_norm_a.denominator
    den *= ctx.s_norm_a.numerator
    for c, ((al, ah, ad), (gl, gh, gd)) in enumerate(
            zip(arch, _shift_rows(ctx, gamma))):
        # max(|a_lo - g_hi|, |a_hi - g_lo|) over ad * gd
        term = max(ah * gd - gl * ad, gh * ad - al * gd)
        den *= ad * gd
        if c < r1:
            num *= term
        elif (c - r1) % 2 == 0:
            re = term
        else:
            # a complex place: the sum of the squares of its coordinates,
            # which share their denominator
            num *= re * re + term * term
    return num, den


def exact_bound(ctx: TorusContext, arch, gamma: FieldElement,
                num: int, den: int) -> Fraction:
    """exact_pair as a Fraction."""
    return Fraction(*exact_pair(ctx, arch, gamma, num, den))


def _norm_factor(pairs) -> tuple[int, int]:
    """Integers (num, den) with num / den = prod Np^-m over (Np, m)."""
    num = den = 1
    for q, m in pairs:
        if m > 0:
            den *= q ** m
        elif m < 0:
            num *= q ** -m
    return num, den


def _finite_factor(terms) -> tuple[int, int]:
    """Exact upper bound (num, den) of prod |x - gamma|_v for
    x = center mod P_v^k, over the (place, center - gamma, k) terms."""
    return _norm_factor(
        (v.residue_norm(), k if diff.is_zero() else min(k, valuation(diff, v)))
        for v, diff, k in terms)


def bound_pair(ctx: TorusContext, arch, center: FieldElement, exponents,
               gamma: FieldElement) -> tuple[int, int]:
    """The bound of box_bound as integers (num, den), den > 0, for a box
    whose archimedean image is arch (an arch_image), whose class center is
    center and whose finite depths are exponents.

    The one evaluator of recorded bounds: box_bound, and with it every
    certificate entry, and verify_certificate's replay both call it.
    """
    diff = center - gamma
    num, den = _finite_factor((v, diff, k) for v, k in
                              zip(ctx.sconfig.finite_places, exponents))
    return exact_pair(ctx, arch, gamma, num, den)


def box_bound(ctx: TorusContext, box: CoverBox,
              gamma: FieldElement) -> Fraction:
    """Certified upper bound on sup over the box of N_S(x - gamma) / N_S(a).

    Deterministic in (box, gamma), which is what certificate replay relies on.
    """
    return Fraction(*bound_pair(ctx, box_arch(ctx, box),
                                box.center_element(ctx), box.exponents, gamma))


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


# -- the bound screen ----------------------------------------------------------
#
# Integers lo <= V <= hi around V = bound * N_S(a) * 2^(2bn), b = GRID_BITS:
# a box's exact image (box_arch) is rounded outward to the scale 2^(2b),
# that of a box coordinate times an a-part basis row, and a shift's rows to
# the grid 2^-b, once each; all later arithmetic is exact.

# BOUND_WIDTH at the scale 2^(2b): it bounds the width of a shift's exact
# rows outside degree one, where embeddings are exact points
SCREEN_DELTA = ceil_scaled(BOUND_WIDTH, 2 * GRID_BITS)


def grid_enclosure(arch) -> list:
    """Per real coordinate, integers (lo_lo, lo_hi, hi_lo, hi_hi): the floor
    and the ceiling of each endpoint of arch, a box_arch, times 2^(2b)."""
    k = 2 * GRID_BITS
    return [((lo << k) // d, -((-lo << k) // d),
             (hi << k) // d, -((-hi << k) // d)) for lo, hi, d in arch]


def profile_factor(ctx: TorusContext, profile) -> tuple[int, int]:
    """Integers (num, den) with num / den = prod Np^-m_v, which bounds the
    finite part of the norm over a box for shifts of a congruence profile."""
    return _norm_factor((v.residue_norm(), m) for v, m in
                        zip(ctx.sconfig.finite_places, profile))


def screen_threshold(ctx: TorusContext, t: Fraction) -> int:
    """ceil(t * N_S(a) * 2^(2bn)), t on the scale of the screen rounded up.

    A bound whose enclosure starts at or above it is at least t, one whose
    enclosure ends below it is below t, and t is at most an enclosure's
    upper end hi exactly when this is at most hi.
    """
    return ceil_scaled(t * ctx.s_norm_a, 2 * GRID_BITS * ctx.field.degree)


def bound_enclosure(ctx: TorusContext, arch, gamma: FieldElement,
                    num: int, den: int) -> tuple[int, int]:
    """Integers lo <= V <= hi for V = exact_bound(ctx, box_arch(ctx, box),
    gamma, num, den) * N_S(a) * 2^(2bn).

    arch is grid_enclosure(box_arch(ctx, box)). The shift's exact rows
    come from embed at BOUND_WIDTH: they hold the true embedding and are at
    most delta wide, so each endpoint lies within delta of the grid
    enclosure of the true embedding computed here.
    """
    delta = 0 if ctx.field.degree == 1 else SCREEN_DELTA
    b = GRID_BITS
    r1, _ = ctx.field.signature
    lo, hi = num, num
    sq_lo = sq_hi = 0
    rows = grid_row(gamma, ctx.field.basis_row_bounds(b))
    for c, ((gl, gh), (al_l, al_h, ah_l, ah_h)) in enumerate(zip(rows, arch)):
        gl <<= b
        gh <<= b
        # exact rows [g_lo, g_hi]: g_lo in [gl - delta, gh], g_hi in
        # [gl, gh + delta]; exact_bound takes max(|a_lo - g_hi|,
        # |a_hi - g_lo|) per coordinate
        d1l = al_l - gh - delta
        d1h = al_h - gl
        d2l = ah_l - gh
        d2h = ah_h - gl + delta
        t_lo = max(d1l, -d1h, d2l, -d2h, 0)
        t_hi = max(-d1l, d1h, -d2l, d2h)
        if c < r1:
            lo *= t_lo
            hi *= t_hi
        else:
            # a complex place: the sum of the squares of its two coordinates
            sq_lo += t_lo * t_lo
            sq_hi += t_hi * t_hi
            if (c - r1) % 2:
                lo *= sq_lo
                hi *= sq_hi
                sq_lo = sq_hi = 0
    return lo // den, -(-hi // den)


def box_floor(ctx: TorusContext, arch) -> int:
    """An integer F such that num * F // den is at most the V of
    bound_enclosure(ctx, arch, gamma, num, den) for every shift gamma.

    arch is grid_enclosure(box_arch(ctx, box)). No point lies closer to both
    ends of an interval than half its width, so the term exact_bound takes
    per real coordinate is at least half the width of the box's image
    there, whatever the shift.
    """
    r1, _ = ctx.field.signature
    out = 1
    sq = 0
    for c, (_, lo_h, hi_l, _) in enumerate(arch):
        half = max(hi_l - lo_h, 0) // 2
        if c < r1:
            out *= half
        else:
            # a complex place: the sum of the squares of its two coordinates
            sq += half * half
            if (c - r1) % 2:
                out *= sq
                sq = 0
    return out


# -- candidate shifts ----------------------------------------------------------


def shift_targets(ctx: TorusContext, box: CoverBox):
    """(center, midpoint): what the candidate shifts of every profile of a
    box aim at, the class center and, at the archimedean places, the box
    midpoint sum_j (lo_j + hi_j) / 2 * basis_j."""
    mid_den = lcm(*[x.denominator for x in box.lo + box.hi])
    mids = [_scaled(lo, mid_den) + _scaled(hi, mid_den)
            for lo, hi in zip(box.lo, box.hi)]
    return box.center_element(ctx), ctx.a_part.point(mids, 2 * mid_den)


def candidate_shifts(ctx: TorusContext, box: CoverBox, profile,
                     targets=None) -> list[FieldElement]:
    """Nearby elements of the S-ideal matching a congruence profile.

    profile[v] = m_v: m_v > 0 demands gamma = center mod P_v^{m_v} (and then
    |x-gamma|_v <= Np^{-m_v} over a box of depth k_v >= m_v); m_v <= 0 allows
    a denominator, with |x-gamma|_v <= Np^{-m_v}. The candidates lie in the
    affine family of the a-part times prod P_v^{m_v}. targets is
    shift_targets(ctx, box), computed here when not given.
    """
    field = ctx.field
    center, midpoint = targets or shift_targets(ctx, box)
    lattice = ctx.s_lattice(profile)
    if any(m > 0 for m in profile):
        gamma0 = shift_into_depths(ctx, center, profile)
    else:
        gamma0 = field.zero()
    w, d = lattice.int_coords(midpoint - gamma0)
    base = [_round_half_even(c, d) for c in w]
    # gamma0 + H z / den over the common denominator, z = base + offsets,
    # the last coordinate of z running fastest
    den = lcm(gamma0.den, lattice.den)
    scale = den // lattice.den
    cols = [[row[j] * scale for row in lattice.hnf] for j in range(len(base))]
    start = [a * (den // gamma0.den) for a in gamma0.nums]
    out = []
    steps = range(-CORNER_RADIUS, CORNER_RADIUS + 1)
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


@functools.lru_cache(maxsize=PROFILE_SCHEDULES)
def profile_schedule(norms: tuple, depths: tuple) -> tuple:
    """Deterministic profile schedule of a box of the given depths, most
    congruent first: (profile, num, den) per profile, num / den its
    profile_factor under the residue norms of S's finite places.

    The menu per place keeps the deepest congruences, the free level, and a
    few denominator levels; intermediate depths are rarely optimal and only
    cost bound evaluations (never soundness).
    """
    menus = [{k, max(k - 1, 0), max(k - 2, 0), 0, -1, -PROFILE_NEG_DEPTH}
             for k in depths]
    # most congruent profiles first: larger sum of depths first
    profiles = sorted(itertools.product(*menus), key=lambda pr: (-sum(pr), pr))
    return tuple((pr,) + _norm_factor(zip(norms, pr))
                 for pr in profiles[:PROFILE_CAP])


def box_schedule(ctx: TorusContext, box: CoverBox) -> tuple:
    """The profile_schedule of a box, made once per (residue norms of S,
    box depths) and shared by every box, ideal and S with those."""
    norms = tuple(v.residue_norm() for v in ctx.sconfig.finite_places)
    return profile_schedule(norms, box.exponents)


def profiles_for_box(ctx: TorusContext, box: CoverBox) -> tuple:
    """The profiles of box_schedule(ctx, box), in schedule order; that
    schedule is made once per (residue norms of S, box depths) and shared."""
    return tuple(pr for pr, _, _ in box_schedule(ctx, box))


# -- certificates ---------------------------------------------------------------


class CertEntry(NamedTuple):
    box: CoverBox
    gamma_coords: tuple     # integral-basis coordinates of the shift
    bound: Fraction         # certified bound on sup N_S(x-gamma)/N_S(a)


class CoveringCertificate(NamedTuple):
    threshold: Fraction
    entries: tuple          # CertEntry, canonically sorted
    ideal_hnf: tuple
    ideal_den: int


class CoveringState(NamedTuple):
    """Resumable branch-and-bound state: certified entries, open boxes."""
    entries: list
    boxes: list
    processed: int


class Unresolved:
    """Covering attempt that stopped without a certificate.

    Either the budget ran out, or a surviving box held a class `witness`
    whose exact minimum `witness_minimum` is at least the threshold, which
    proves that no certificate at that threshold exists; its unit orbit has
    `witness_orbit_size` classes. The surviving boxes localize the
    high-minimum region; `state` resumes the covering.
    """

    def __init__(self, state: CoveringState, witness=None,
                 witness_minimum=None, witness_orbit_size=None):
        self.state = state
        self.boxes = state.boxes
        self.processed = state.processed
        self.witness = witness
        self.witness_minimum = witness_minimum
        self.witness_orbit_size = witness_orbit_size

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
    domain, pairwise disjointness, and total measure exactly 1. Box
    coordinates, centers and shifts are read once as integers over one
    denominator each. Every bound is re-derived by bound_pair and compared
    with the recorded one on integers. The archimedean image of each
    distinct box and the S-ideal membership of each distinct shift are
    computed once per call; nothing is kept from one call to the next.
    """
    t = Fraction(threshold) if threshold is not None else cert.threshold
    if cert.threshold > t:
        raise AssertionError("certificate threshold exceeds requested one")
    if (cert.ideal_hnf, cert.ideal_den) != (ctx.a_part.hnf, ctx.a_part.den):
        raise AssertionError("certificate is for a different ideal")
    field = ctx.field
    n = field.degree
    places = ctx.sconfig.finite_places
    nfin = len(places)
    entries = cert.entries
    xden = lcm(*[x.denominator for e in entries for x in e.box.lo + e.box.hi])
    zden = lcm(*[x.denominator for e in entries for x in e.box.center])
    gden = lcm(*[x.denominator for e in entries for x in e.gamma_coords])
    boxes = []      # (lo, hi over xden, center, exponents) per entry
    volumes = {}    # exponents -> sum of prod (hi - lo) over xden^n
    archs = {}      # (lo, hi) -> the arch_image of the box
    shifts = {}     # numerators over gden -> (shift, in the S-ideal)
    for e in entries:
        box = e.box
        if (len(box.lo) != n or len(box.hi) != n or len(box.center) != n
                or len(box.exponents) != nfin or len(e.gamma_coords) != n):
            raise AssertionError("entry shape mismatch")
        lo = tuple([_scaled(x, xden) for x in box.lo])
        hi = tuple([_scaled(x, xden) for x in box.hi])
        vol = 1
        for a, b in zip(lo, hi):
            if not (0 <= a < b <= xden):
                raise AssertionError("box outside the fundamental parallelepiped")
            vol *= b - a
        if any(k < 0 for k in box.exponents):
            raise AssertionError("negative finite precision")
        center = tuple([_scaled(x, zden) for x in box.center])
        if any(c % zden for c in center):
            raise AssertionError("box center is not integral")
        bound = e.bound
        if not bound < t:
            raise AssertionError(f"bound {rat_str(bound)} not below "
                                 f"threshold {rat_str(t)}")
        g = tuple([_scaled(x, gden) for x in e.gamma_coords])
        shift = shifts.get(g)
        if shift is None:
            gamma = FieldElement(field, g, gden)
            shift = shifts[g] = (gamma, gamma_in_s_ideal(ctx, gamma))
        gamma, member = shift
        if not member:
            raise AssertionError("shift is not in the S-ideal")
        arch = archs.get((lo, hi))
        if arch is None:
            arch = archs[lo, hi] = arch_image(ctx, lo, hi, xden)
        z = FieldElement(field, tuple([c // zden for c in center]), 1)
        num, den = bound_pair(ctx, arch, z, box.exponents, gamma)
        if num * bound.denominator != den * bound.numerator:
            raise AssertionError(
                f"bound replay mismatch: recorded {rat_str(bound)}, "
                f"got {rat_str(Fraction(num, den))}")
        volumes[box.exponents] = volumes.get(box.exponents, 0) + vol
        boxes.append((lo, hi, z, box.exponents))
    # the boxes of one finite depth measure their volume sum / prod Np^k
    total = sum([Fraction(vol, prod([v.residue_norm() ** k for v, k in zip(
        places, exponents)])) for exponents, vol in volumes.items()])
    if total != xden ** n:
        raise AssertionError(
            f"boxes measure {rat_str(total / xden ** n)}, expected exactly 1")
    _check_disjoint(ctx, boxes)


def _check_disjoint(ctx, boxes):
    """Pairwise disjointness via a sweep on the first coordinate, over the
    (lo, hi, center, exponents) boxes, lo and hi integers and the center an
    integral element.

    A box meets every box still active in the sweep on the first
    coordinate, so only the others are compared. The classes of two
    integral centers meet exactly when the centers differ by an element of
    prod P_v^{min k_v}, that is when their coordinates over its HNF basis
    agree modulo 1; each box's key at each such depth is computed once.
    """
    idx = sorted(range(len(boxes)), key=lambda i: boxes[i][0][0])
    keys = [{} for _ in boxes]      # per box: depths -> its class key

    def key(i, depths):
        w, d = ctx.s_lattice(depths, over_order=True).int_coords(boxes[i][2])
        out = keys[i][depths] = tuple([c % d for c in w])
        return out

    active = []
    for i in idx:
        lo, hi, _, exponents = boxes[i]
        rest = tuple(zip(lo[1:], hi[1:]))
        mine = keys[i]
        active = [j for j in active if boxes[j][1][0] > lo[0]]
        for j in active:
            lo2, hi2, _, exponents2 = boxes[j]
            if rest and not all(a < d and c < b for (a, b), c, d in zip(
                    rest, lo2[1:], hi2[1:])):
                continue
            depths = exponents if exponents == exponents2 else \
                tuple(map(min, exponents, exponents2))
            theirs = keys[j]
            if (mine.get(depths) or key(i, depths)) == \
                    (theirs.get(depths) or key(j, depths)):
                raise AssertionError("overlapping boxes in certificate")
        active.append(i)
