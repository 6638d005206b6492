"""Exact Euclidean minima, certified coverings, and the decision procedure.

The exact minimum of N_S(xi - gamma)/N_S(a) over the S-ideal is computable
for xi in K because three finiteness mechanisms line up:

  1. the value set is discrete: every attainable value is an integer
     multiple of N_S(a)/N_S(d), with d clearing xi into the ideal;
  2. the orbit of the class of xi under the verified S-units is finite, so
     the infinite unit sweep collapses to finitely many cosets;
  3. any difference eta = xi' - gamma with N_S(eta) <= B has a unit
     translate whose every normalized absolute value is at most
     B^(1/#S) * prod_i max(|u_i|_v, |u_i|_v^-1)^(1/2), the half-sum bound
     of the generator log vectors, so one compact box per orbit coset
     contains a representative of every candidate value.

Enumerating those boxes exactly and taking the least S-norm therefore
yields the global minimum, not an approximation.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, gcd, lcm
from types import MappingProxyType
from typing import NamedTuple

from .covering import (BUDGET, CoverBox, CoveringCertificate,
                       CoveringState, Unresolved, bound_enclosure, box_arch,
                       box_entry, box_floor, box_schedule, candidate_shifts,
                       exact_bound, gamma_in_s_ideal, grid_enclosure,
                       initial_box, screen_threshold, shift_targets,
                       split_arch, split_finite, verify_certificate)
from .enumerate import elements_in_box, real_box_targets
from .errors import UnverifiedUnits
from .fields import FieldElement, FractionalIdeal, embed
from .hnf import int_det
from .places import s_norm, s_norm_from_norm, valuation
from .qmath import nth_root_upper, sqrt_upper
from .torus import (TorusContext, orbit_with_units, reduce_mod,
                    shift_into_depths, torsion_reps, torus_context)


@dataclass(init=False)
class MinimumValue:
    """An exact minimum and a shift that attains it.

    Callers keep many results (a search keeps one per class), so a result
    stores its numbers as one tuple of integers, (numerator and denominator
    of value, denominator and numerators of attaining_shift), and shares a
    read-only search_box with every result of the same branch. The fields
    stay those of a dataclass (fields, replace, eq and repr see value,
    attaining_shift and search_box); the properties below rebuild the first
    two from the integers.
    """

    __slots__ = ("_field", "_ints", "search_box")
    value: Fraction                 # normalized: N_S(xi - shift) / N_S(a)
    attaining_shift: FieldElement   # gamma in the S-ideal
    search_box: Mapping             # which search m_exact ran

    def __init__(self, value, attaining_shift: FieldElement,
                 search_box: Mapping):
        value = Fraction(value)
        self._field = attaining_shift.field
        self._ints = ((value.numerator, value.denominator, attaining_shift.den)
                      + attaining_shift.nums)
        self.search_box = search_box

    @property
    def value(self) -> Fraction:
        return Fraction(self._ints[0], self._ints[1])

    @property
    def attaining_shift(self) -> FieldElement:
        return FieldElement(self._field, self._ints[3:], self._ints[2])


_TRIVIAL = MappingProxyType({"trivial": True})
_CORNER_SCAN = MappingProxyType({"branch": "corner-scan"})
_BOX_ENUMERATION = MappingProxyType({"branch": "box-enumeration"})


class MReport(NamedTuple):
    lower: Fraction
    witness: FieldElement
    witness_minimum: MinimumValue
    upper: Fraction | None          # least certified upper bound, if any
    certificate: CoveringCertificate | None
    exact: bool
    witness_orbit_size: int
    effort: dict


class EuclideanVerdict(NamedTuple):
    verdict: str                    # "euclidean" | "not_euclidean" | "undecided"
    certificate: CoveringCertificate | None
    witness: FieldElement | None
    witness_minimum: MinimumValue | None
    effort: dict

    def replays(self, a, sconfig) -> bool:
        ctx = torus_context(a, sconfig)
        if self.verdict == "euclidean":
            try:
                verify_certificate(ctx, self.certificate, Fraction(1))
            except AssertionError:
                return False
            return True
        if self.verdict == "not_euclidean":
            mv = self.witness_minimum
            return mv.value >= 1 and witness_mismatch(
                a, sconfig, self.witness, mv.value, mv.attaining_shift) is None
        return False


# -- the exact minimum ---------------------------------------------------------


def _unit_box_factors(ctx: TorusContext) -> list[Fraction]:
    """Per place: certified upper bound of prod_i max(|u_i|_v, 1/|u_i|_v)^(1/2).

    These factors fatten the N_S^(1/#S) balance point into a box that is
    guaranteed to contain a fundamental-parallelepiped representative of
    every unit orbit in log space.
    """
    sconfig = ctx.sconfig
    if ctx.unit_factors is not None:
        return ctx.unit_factors
    factors = []
    for place in sconfig.places:
        f = Fraction(1)
        for u in sconfig.unit_gens:
            if place.is_finite():
                w = abs(valuation(u, place))
                f *= sqrt_upper(Fraction(place.residue_norm()) ** w)
            else:
                prec = Fraction(1, 2**16)
                while True:
                    iv = place.magnitude(embed(u, prec))
                    if iv.lo > 0:
                        break
                    prec /= 16
                f *= sqrt_upper(max(iv.hi, 1 / iv.lo))
        factors.append(f)
    ctx.unit_factors = factors
    return factors


def _min_exponent(np_: int, c: Fraction) -> int:
    """Smallest integer k with np_^(-k) <= c."""
    npf = Fraction(np_)
    k = 0
    while npf ** (-k) > c:
        k += 1
    while npf ** (-(k - 1)) <= c:
        k -= 1
    return k


def _s_norm_of_int(ctx: TorusContext, d: int) -> Fraction:
    return s_norm(ctx.field.from_rational(d), ctx.sconfig)


def _corner_scan(ctx: TorusContext, rep: FieldElement, best):
    """(S-norm, rep + shift) over the corner shifts of ctx.corners, in
    corner order, for each difference whose S-norm is below best (None for
    no bound) and below every one yielded before; zero is left out.

    For rep = nums / den, a shift s / D and their common denominator
    L = lcm(den, D), the norm of the integral L * (rep + shift) is
    det((L/den) M(nums) + (L/D) M(s)), M the integer multiplication
    matrix, which is linear: each corner costs one integer determinant,
    and an element is built only for a yielded difference.
    """
    field = ctx.field
    common = lcm(rep.den, ctx.a_part.den)
    kr, ks = common // rep.den, common // ctx.a_part.den
    rep_nums = [kr * c for c in rep.nums]
    rep_m = field.int_mult_matrix(rep_nums)
    for shift, shift_m in ctx.corners:
        nrm = abs(int_det([[x + ks * y for x, y in zip(row, srow)]
                           for row, srow in zip(rep_m, shift_m)]))
        if not nrm:
            continue
        nums = tuple([x + ks * y for x, y in zip(rep_nums, shift)])
        val = s_norm_from_norm(field, nums, common, nrm, ctx.sconfig)
        if best is None or val < best:
            best = val
            yield val, FieldElement(field, nums, common)


def m_exact(a: FractionalIdeal, sconfig, xi: FieldElement) -> MinimumValue:
    """The exact minimum of N_S(xi - gamma)/N_S(a) over the S-ideal of a."""
    return m_exact_attained(a, sconfig, xi)[0]


def m_exact_attained(a: FractionalIdeal, sconfig, xi: FieldElement):
    """m_exact, where the search attained it, and the orbit it searched:
    (MinimumValue, rep, shift, orbit).

    rep is the reduced representative of the unit orbit of xi at which the
    least S-norm difference rep - shift was found, and shift is a small
    element of the S-ideal; both are None when xi lies in the S-ideal.
    orbit is that of torus.orbit(a, sconfig, xi), closed once here.
    """
    if not sconfig.verified:
        raise UnverifiedUnits("m_exact requires a verified S-unit basis")
    ctx = torus_context(a, sconfig)
    field = ctx.field
    rho0, gamma0 = reduce_mod(a, sconfig, xi)
    if rho0.is_zero():
        return MinimumValue(Fraction(0), gamma0, _TRIVIAL), None, None, [rho0]
    orbit_pairs = orbit_with_units(a, sconfig, xi)
    # discreteness floor: d * rho0 lands in the a-part lattice
    w, dd = ctx.a_part.int_coords(rho0)
    d = dd // gcd(dd, *w)
    floor_raw = ctx.s_norm_a / _s_norm_of_int(ctx, d)
    # initial best: corner shifts of every orbit representative
    best_raw = None
    best_eta = None
    best_unit = None
    best_rep = None
    for rep, u in orbit_pairs:
        for val, eta in _corner_scan(ctx, rep, best_raw):
            best_raw, best_eta, best_unit, best_rep = val, eta, u, rep
    if best_raw is None:
        raise AssertionError("no corner difference is nonzero")
    search_info = _CORNER_SCAN
    if best_raw > floor_raw:
        # full certified enumeration below the current best
        factors = _unit_box_factors(ctx)
        s = sconfig.size
        root = nth_root_upper(best_raw, s)
        r1, r2 = field.signature
        real_bounds = [root * factors[i] for i in range(r1)]
        cplx_bounds = [root * factors[r1 + i] for i in range(r2)]
        depths = []
        for i, v in enumerate(sconfig.finite_places):
            c_v = root * factors[r1 + r2 + i]
            depths.append(_min_exponent(v.residue_norm(), c_v))
        targets = real_box_targets(field, real_bounds, cplx_bounds)
        basis = ctx.s_lattice(depths).basis_elements()
        search_info = _BOX_ENUMERATION
        need = tuple([max(k, 0) for k in depths])
        for rep, u in orbit_pairs:
            offset = rep
            if any(valuation(rep, v) < k
                   for v, k in zip(sconfig.finite_places, need) if k > 0):
                offset = rep - shift_into_depths(ctx, rep, need)
                if not offset.is_zero() and any(
                        valuation(offset, v) < k
                        for v, k in zip(sconfig.finite_places, need)):
                    raise AssertionError("enumeration offset misses depths")
            for eta in elements_in_box(basis, offset, targets):
                if eta.is_zero():
                    continue
                val = s_norm(eta, sconfig)
                if val < best_raw:
                    best_raw, best_eta, best_unit, best_rep = val, eta, u, rep
    # transport the best difference back to xi's own coset
    gamma = xi - best_eta * best_unit.inverse()
    value = best_raw / ctx.s_norm_a
    if s_norm(xi - gamma, sconfig) / ctx.s_norm_a != value:
        raise AssertionError("attaining shift does not replay")
    if not gamma_in_s_ideal(ctx, gamma):
        raise AssertionError("shift left the S-ideal")
    return (MinimumValue(value, gamma, search_info), best_rep,
            best_rep - best_eta, [rep for rep, _ in orbit_pairs])


def witness_mismatch(a: FractionalIdeal, sconfig, xi: FieldElement,
                     value: Fraction, shift: FieldElement,
                     orbit_size: int | None = None):
    """Why a recorded witness does not replay, or None when it does: the
    exact minimum at xi is recomputed and must equal value, orbit_size, when
    given, must be the size of the unit orbit that recomputation closes,
    and shift must lie in the S-ideal and attain the value."""
    ctx = torus_context(a, sconfig)
    mv, _, _, orb = m_exact_attained(a, sconfig, xi)
    again = mv.value
    if again != value:
        return (f"witness value mismatch: recorded "
                f"{value.numerator}/{value.denominator}, recomputed "
                f"{again.numerator}/{again.denominator}")
    if orbit_size is not None and orbit_size != len(orb):
        return "witness_orbit_size must be the size of the witness's orbit"
    if s_norm(xi - shift, sconfig) / ctx.s_norm_a != value:
        return "recorded shift does not reproduce the value"
    if not gamma_in_s_ideal(ctx, shift):
        return "recorded shift is not in the S-ideal"
    return None


# -- covering proofs -----------------------------------------------------------


def _certify_box(ctx: TorusContext, box: CoverBox, t: Fraction):
    """Try to certify one box below t; returns (entry | None, best bound).

    Candidates are screened with the cheap profile factor (the congruence
    depth bounds the finite contribution without valuation work), and each
    screening bound is first decided against t from its integer enclosure.
    A profile whose floor (the box's width alone bounds every shift's
    screening bound from below) lies above the least enclosure end so far
    can neither win nor lower the least bound, so its shifts are never
    made. A shift whose enclosure ends below t wins outright. The exact
    bound is computed only where the enclosure straddles t and, when the
    box fails, for the candidates whose enclosure could hold the least
    bound, so the result equals that of an all-exact screen. Only a winning
    candidate gets the canonical exact-valuation bound that the certificate
    records, which is never larger than the screening bound.
    """
    arch = box_arch(ctx, box)
    arch_grid = grid_enclosure(arch)
    floor = box_floor(ctx, arch_grid)
    targets = shift_targets(ctx, box)
    t_grid = screen_threshold(ctx, t)
    least = None                # least upper end of an enclosure so far
    near = []                   # (lo, exact bound | None, shift, num, den)
    for profile, num, den in box_schedule(ctx, box):
        # least >= t_grid, so such a profile holds no winner either
        if least is not None and num * floor // den > least:
            continue
        for gamma in candidate_shifts(ctx, box, profile, targets):
            lo, hi = bound_enclosure(ctx, arch_grid, gamma, num, den)
            if hi < t_grid:     # certainly below t
                entry = box_entry(ctx, box, gamma)
                if screen_threshold(ctx, entry.bound) > hi:
                    raise AssertionError("canonical bound exceeds screening")
                return entry, entry.bound
            quick = None
            if lo < t_grid:     # the enclosure straddles t
                quick = exact_bound(ctx, arch, gamma, num, den)
                if quick < t:
                    entry = box_entry(ctx, box, gamma)
                    if entry.bound > quick:
                        raise AssertionError(
                            "canonical bound exceeds screening")
                    return entry, entry.bound
            least = hi if least is None else min(least, hi)
            if lo <= least:
                near.append((lo, quick, gamma, num, den))
    best = None
    for lo, quick, gamma, num, den in near:
        if lo <= least:
            if quick is None:
                quick = exact_bound(ctx, arch, gamma, num, den)
            if best is None or quick < best:
                best = quick
    return None, best


MAX_SPLIT_DEPTH = 24    # the deepest finite precision a box split refines to


def _split_box(ctx: TorusContext, box: CoverBox):
    """Scale-balancing split: refine whichever factor is coarsest."""
    widths = [h - l for l, h in zip(box.lo, box.hi)]
    widest = max(widths)
    axis = widths.index(widest)
    finite_scales = [Fraction(v.residue_norm()) ** (-k)
                     for v, k in zip(ctx.sconfig.finite_places, box.exponents)]
    if finite_scales:
        coarsest = max(finite_scales)
        place_idx = finite_scales.index(coarsest)
        if coarsest > widest and box.exponents[place_idx] < MAX_SPLIT_DEPTH:
            return split_finite(ctx, box, place_idx)
    return split_arch(box, axis)


# A box that fails to certify and covers at most PROBE_VOLUME of the domain is
# searched for a class whose exact minimum reaches the threshold: its
# K-points with coordinates k/m over the a-part basis, m <= PROBE_DENOM, at
# most PROBE_POINTS of them per box.
PROBE_VOLUME = Fraction(1, 2**8)
PROBE_DENOM = 12
PROBE_POINTS = 24


def _box_points(ctx: TorusContext, box: CoverBox):
    """Low-height K-points of the box, smallest denominator first."""
    tried = 0
    for m in range(1, PROBE_DENOM + 1):
        ranges = [range(ceil(lo * m), ceil(hi * m))
                  for lo, hi in zip(box.lo, box.hi)]
        for ks in itertools.product(*ranges):
            if gcd(m, *ks) != 1:        # a smaller m gave this point
                continue
            if tried == PROBE_POINTS:
                return
            tried += 1
            x = ctx.a_part.point(ks, m)
            if box_contains_rational(ctx, box, x):
                yield x


def _probe_box(a: FractionalIdeal, ctx: TorusContext, box: CoverBox,
               t: Fraction, tested: set, spent: dict, budget: int):
    """A class in a small surviving box with exact minimum >= t, or None.

    Returns (reduced representative, MinimumValue, orbit size). `tested`
    holds the classes already looked at in this covering. A corner shift
    whose norm ratio is below t bounds the minimum below t, so m_exact only
    runs on points that pass that screen, each call charged to `spent`
    while the budget lasts.
    """
    if box.volume_fraction(ctx) > PROBE_VOLUME:
        return None
    sconfig = ctx.sconfig
    for x in _box_points(ctx, box):
        rho, _ = reduce_mod(a, sconfig, x)
        if rho.is_zero() or rho in tested:
            continue
        tested.add(rho)
        if next(_corner_scan(ctx, rho, t * ctx.s_norm_a), None) is not None:
            continue
        if sum(spent.values()) >= budget:
            return None
        spent["m_exact_calls"] += 1
        mv, _, _, orb = m_exact_attained(a, sconfig, rho)
        if mv.value >= t:
            return rho, mv, len(orb)
    return None


def covering_verify(a: FractionalIdeal, sconfig, t, budget: int = BUDGET,
                    resume: CoveringState | None = None,
                    effort: dict | None = None):
    """Prove that every adele class admits a shift with norm ratio below t.

    Worst-bound-first branch and bound over the fundamental domain. Returns
    a CoveringCertificate on success. Otherwise returns an Unresolved with
    the surviving boxes (which localize the high-minimum region) and a
    resumable state: either the budget ran out, or a small surviving box
    held a class with exact minimum >= t, which the Unresolved carries as a
    replayable witness that t is not above the supremum. Such a box can
    never be certified, so a covering that succeeds never stops early.
    The boxes processed and the probes' m_exact calls together spend at
    most `budget`; with `effort`, adds both counts to it.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("covering threshold must be positive")
    ctx = torus_context(a, sconfig)
    entries = list(resume.entries) if resume else []
    heap = []
    counter = itertools.count()
    for box in resume.boxes if resume else [initial_box(ctx)]:
        heapq.heappush(heap, (Fraction(0), next(counter), box))
    spent = {"covering_boxes": 0, "m_exact_calls": 0}
    tested = set()
    found = None
    while heap and found is None and sum(spent.values()) < budget:
        box = heapq.heappop(heap)[2]
        spent["covering_boxes"] += 1
        entry, bound = _certify_box(ctx, box, t)
        if entry is not None:
            entries.append(entry)
            continue
        found = _probe_box(a, ctx, box, t, tested, spent, budget)
        priority = -bound if bound is not None else Fraction(0)
        for child in _split_box(ctx, box):
            heapq.heappush(heap, (priority, next(counter), child))
    if effort is not None:
        for key, count in spent.items():
            effort[key] += count
    if heap:
        state = CoveringState(entries, [item[2] for item in heap],
                              spent["covering_boxes"])
        return Unresolved(state, *(found or ()))
    entries.sort(key=lambda e: e.box.sort_key())
    return CoveringCertificate(threshold=t, entries=tuple(entries),
                               ideal_hnf=ctx.a_part.hnf,
                               ideal_den=ctx.a_part.den)


def box_contains_rational(ctx: TorusContext, box: CoverBox,
                          x: FieldElement) -> bool:
    """Exact membership of a K-point's diagonal image in the box."""
    coords = ctx.a_part.coords_in_basis(x)
    for c, lo, hi in zip(coords, box.lo, box.hi):
        if not lo <= c < hi:
            return False
    diff = x - box.center_element(ctx)
    for v, k in zip(ctx.sconfig.finite_places, box.exponents):
        if not x.is_zero() and valuation(x, v) < 0:
            return False
        if k and not diff.is_zero() and valuation(diff, v) < k:
            return False
    return True


# -- search and the bracketing loop --------------------------------------------


def search_lower(a: FractionalIdeal, sconfig, denom_bound: int, effort=None):
    """Best exact minimum over torsion classes with denominator <= bound.

    Prunes by unit orbit: every class is evaluated once per orbit. Returns
    (witness, MinimumValue, orbit_size_of_witness).
    """
    return _search(a, sconfig, range(1, denom_bound + 1), set(), effort)


def _search(a: FractionalIdeal, sconfig, denoms, seen: set, effort):
    """search_lower over the denominators in denoms, skipping the classes in
    seen; the class of 0 when every class is skipped."""
    best = None
    for m in denoms:
        for rep in torsion_reps(a, m, sconfig, primitive=True):
            rho, _ = reduce_mod(a, sconfig, rep)
            if rho in seen:
                continue
            if effort is not None:
                effort["m_exact_calls"] = effort.get("m_exact_calls", 0) + 1
            mv, _, _, orb = m_exact_attained(a, sconfig, rho)
            seen.update(orb)
            if best is None or mv.value > best[1].value:
                best = (rho, mv, len(orb))
    if best is None:
        zero = a.field.zero()
        best = (zero, MinimumValue(Fraction(0), zero, _TRIVIAL), 1)
    return best


SLICE = 400             # the budget of the first covering slice
SEARCH_DENOM = 64       # the top of the search ladder


def _bracket(a: FractionalIdeal, sconfig, budget: int, denom: int,
             threshold, stop) -> MReport:
    """Bracket the supremum of the exact minimum until stop(lower, closed)
    holds or the budget cannot pay for another step; closed is upper - lower
    when the last certificate was made.

    A search, first and after each failed covering, adds the denominators
    up to the next of denom, 2 denom, ..., SEARCH_DENOM, when what is left
    pays for their m^n classes each. A covering at threshold(lower, closed)
    gets SLICE boxes, twice as many after each failure but never more than
    what is left, and resumes the failed one while the threshold stays. Its
    witness replaces the search's only when strictly better, and skips the
    search when it settles stop.
    """
    if not sconfig.verified:
        raise UnverifiedUnits("bracketing needs a verified S-unit basis")
    effort = {"covering_boxes": 0, "m_exact_calls": 0}
    seen = set()
    best = _search(a, sconfig, (), seen, effort)
    certificate = closed = None
    searched = 0                # the largest denominator searched
    cover_slice = SLICE
    failed = {}                 # threshold -> the last failed covering there

    def left():
        return budget - sum(effort.values())

    def search(best):
        nonlocal searched
        top = min(max(2 * searched, denom), SEARCH_DENOM)
        denoms = range(searched + 1, top + 1)
        if not denoms or sum(m ** a.field.degree for m in denoms) > left():
            return best
        searched = top
        found = _search(a, sconfig, denoms, seen, effort)
        return found if found[1].value > best[1].value else best

    best = search(best)
    while not stop(best[1].value, closed) and left() > 0:
        t = threshold(best[1].value, closed)
        result = covering_verify(a, sconfig, t,
                                 budget=min(cover_slice, left()),
                                 resume=failed.get(t), effort=effort)
        if isinstance(result, CoveringCertificate):
            certificate, closed = result, t - best[1].value
            continue
        failed = {t: result.state}
        cover_slice *= 2
        found = None if result.witness is None else (
            result.witness, result.witness_minimum, result.witness_orbit_size)
        if found is None or not stop(found[1].value, closed):
            best = search(best)
        if found is not None and found[1].value > best[1].value:
            best = found
    witness, mv, orbit_size = best
    upper = None if certificate is None else certificate.threshold
    return MReport(lower=mv.value, witness=witness, witness_minimum=mv,
                   upper=upper, certificate=certificate, exact=False,
                   witness_orbit_size=orbit_size, effort=effort)


def compute_M(a: FractionalIdeal, sconfig, gap,
              budget: int = BUDGET) -> MReport:
    """Two-sided bounds on the supremum of the exact minimum over K.

    Brackets from denominator 4, covering at lower + gap_k: gap_k is 1/2,
    then a quarter of the bracket the last certificate closed, but at least
    gap; stops once a certificate closes a bracket within gap. A covering
    below the supremum stops at its first witness, which raises the lower
    bound when it beats the search.
    exact is False: proving that lower is the supremum needs an isolation
    certificate for the witness orbit, which is not built yet.
    """
    gap = Fraction(gap)
    if gap <= 0:
        raise ValueError("gap must be positive")

    def threshold(lower, closed):
        return lower + (Fraction(1, 2) if closed is None
                        else max(closed / 4, gap))

    return _bracket(a, sconfig, budget, 4, threshold,
                    lambda lower, closed: closed is not None and closed <= gap)


def decide_norm_euclidean(a: FractionalIdeal, sconfig,
                          budget: int = BUDGET) -> EuclideanVerdict:
    """Whether the supremum is below 1: brackets from denominator 2 with
    coverings at threshold 1, until one certifies or a class, from the
    search or a covering, has exact minimum at least 1.

    Sound for any S; termination is guaranteed when #S >= 3 or whenever the
    supremum differs from 1, otherwise the budget may run out (undecided).
    """
    rep = _bracket(a, sconfig, budget, 2, lambda lower, closed: Fraction(1),
                   lambda lower, closed: lower >= 1 or closed is not None)
    if rep.certificate is not None:
        return EuclideanVerdict("euclidean", rep.certificate, None, None,
                                rep.effort)
    if rep.lower >= 1:
        return EuclideanVerdict("not_euclidean", None, rep.witness,
                                rep.witness_minimum, rep.effort)
    return EuclideanVerdict("undecided", None, None, None, rep.effort)
