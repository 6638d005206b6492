"""The integer bound screen of the covering.

Soundness: every integer enclosure holds the exact Fraction value it stands
for, on the scale 2^(2b) per real coordinate and N_S(a) * 2^(2bn) per
bound (b = GRID_BITS). Equivalence: the screened `_certify_box` returns
exactly what an all-exact screen returns, entry and best bound alike.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from euclidmin import (SConfig, ideal_from_gens, make_field, make_sconfig,
                       verify_s_unit_basis)
from euclidmin import covering, minima
from euclidmin.covering import (CertEntry, CoverBox, bound_enclosure,
                                box_arch, box_bound, box_floor,
                                candidate_shifts, exact_bound,
                                grid_enclosure, initial_box, profile_factor,
                                profiles_for_box, screen_threshold,
                                split_arch, split_finite)
from euclidmin.enumerate import GRID_BITS
from euclidmin.minima import _certify_box
from euclidmin.places import valuation
from euclidmin.qmath import int_valuation
from euclidmin.torus import (CongruenceSystem, TorusContext,
                             shift_into_depths, torus_context)
from test_covering import _fresh_python


def _q_23():
    field = make_field([-1, 1])
    return field.maximal_order(), make_sconfig(field, [2, 3])


def _qi_2():
    field = make_field([1, 0, 1])
    return field.maximal_order(), make_sconfig(field, [2])


def _sqrt2_7():
    field = make_field([-2, 0, 1])
    return field.maximal_order(), make_sconfig(field, [7])


def _sqrtm5_class():
    field = make_field([5, 0, 1])
    ideal = ideal_from_gens([field.element([2, 0]), field.element([1, 1])])
    return ideal, make_sconfig(field, [])


def _cubic_unit():
    # x^3 - x - 1: one real and one complex place, theta a unit
    field = make_field([-1, -1, 0, 1])
    sconfig = verify_s_unit_basis(SConfig(field, []), [field.gen()])
    return field.maximal_order(), sconfig


CASES = {"Q_S23": _q_23, "Qi_S2": _qi_2, "Qsqrt2_S7": _sqrt2_7,
         "Qsqrt-5_class": _sqrtm5_class, "cubic_unit": _cubic_unit}


def _random_box(ctx, rng, steps):
    box = initial_box(ctx)
    places = ctx.sconfig.finite_places
    for _ in range(steps):
        if places and rng.random() < 0.3:
            box = rng.choice(split_finite(ctx, box, rng.randrange(len(places))))
        else:
            box = rng.choice(split_arch(box, rng.randrange(ctx.field.degree)))
    return box


def _random_element(field, rng):
    return field.element([F(rng.randint(-40, 40), rng.randint(1, 12))
                          for _ in range(field.degree)])


def _exact_screen_bound(ctx, box, gamma, profile):
    num, den = profile_factor(ctx, profile)
    return exact_bound(ctx, box_arch(ctx, box), gamma, num, den)


def _off_grid(box):
    """The box shrunk to coordinates that are not dyadic."""
    lo = tuple(a + (b - a) / 3 for a, b in zip(box.lo, box.hi))
    hi = tuple(b - (b - a) / 5 for a, b in zip(box.lo, box.hi))
    return box._replace(lo=lo, hi=hi)


def _huge_element(field, rng):
    """An element whose numerators and denominator lie beyond 2^53."""
    return field.element([F(rng.randint(2**60, 2**70) * rng.choice((-1, 1)),
                            rng.randint(2**55, 2**60))
                          for _ in range(field.degree)])


@pytest.mark.parametrize("case", sorted(CASES))
def test_enclosures_hold_the_exact_values(case):
    a, sconfig = CASES[case]()
    ctx = torus_context(a, sconfig)
    n = ctx.field.degree
    coord_scale = F(2)**(2 * GRID_BITS)
    bound_scale = ctx.s_norm_a * F(2)**(2 * GRID_BITS * n)
    rng = random.Random(f"screen:{case}")
    checked = huge = floored = 0
    for i in range(12):
        box = _random_box(ctx, rng, rng.randint(0, 10))
        if i % 2:
            box = _off_grid(box)
        arch = box_arch(ctx, box)
        arch_grid = grid_enclosure(arch)
        for (lo, hi, d), (lo_l, lo_h, hi_l, hi_h) in zip(arch, arch_grid):
            assert lo_l <= F(lo, d) * coord_scale <= lo_h
            assert hi_l <= F(hi, d) * coord_scale <= hi_h
        floor = box_floor(ctx, arch_grid)
        profiles = profiles_for_box(ctx, box)
        for profile in rng.sample(profiles, min(3, len(profiles))):
            num, den = profile_factor(ctx, profile)
            profile_floor = num * floor // den
            floored += profile_floor > 0
            shifts = candidate_shifts(ctx, box, profile)
            shifts += [_random_element(ctx.field, rng) for _ in range(2)]
            shifts.append(_huge_element(ctx.field, rng))
            for gamma in shifts:
                lo, hi = bound_enclosure(ctx, arch_grid, gamma, num, den)
                exact = _exact_screen_bound(ctx, box, gamma, profile)
                assert type(lo) is int and type(hi) is int
                assert lo <= exact * bound_scale <= hi
                # the box's width alone bounds every shift from below
                assert profile_floor <= exact * bound_scale
                checked += 1
                huge += max(gamma.den, *map(abs, gamma.nums)) > 2**53
    assert checked > 50 and huge >= 12 and floored > 0
    # an enclosure starting at or above screen_threshold(t) holds a bound
    # of at least t
    for t in (F(1, 3), F(7, 5), F(2)**-40):
        t_grid = screen_threshold(ctx, t)
        assert t_grid - 1 < t * bound_scale <= t_grid


def _reference_shifts(ctx, box, profile):
    """candidate_shifts written with field arithmetic, one offset vector at
    a time, the last coordinate running fastest."""
    field = ctx.field
    lattice = ctx.s_lattice(profile)
    gamma0 = field.zero()
    if any(m > 0 for m in profile):
        gamma0 = shift_into_depths(ctx, box.center_element(ctx), profile)
    target = field.zero()
    for j, b in enumerate(ctx.basis):
        target = target + b * ((box.lo[j] + box.hi[j]) / 2)
    base = [round(c) for c in lattice.coords_in_basis(target - gamma0)]
    out = []
    for offsets in itertools.product((-1, 0, 1), repeat=field.degree):
        g = gamma0
        for z, d, b in zip(base, offsets, lattice.basis_elements()):
            g = g + b * (z + d)
        out.append(g)
    return out


def _reference_certify(ctx, box, t):
    """The all-exact screen: every candidate's bound as a Fraction."""
    arch = box_arch(ctx, box)
    best = None
    for profile in profiles_for_box(ctx, box):
        fin = F(1)
        for v, m in zip(ctx.sconfig.finite_places, profile):
            fin *= F(v.residue_norm()) ** (-m)
        for gamma in _reference_shifts(ctx, box, profile):
            quick = exact_bound(ctx, arch, gamma, fin.numerator,
                                fin.denominator)
            if best is None or quick < best:
                best = quick
            if quick < t:
                canonical = box_bound(ctx, box, gamma)
                return CertEntry(box, gamma.coords, canonical), canonical
    return None, best


@pytest.mark.parametrize("case", sorted(CASES))
def test_screen_matches_the_exact_screen(case, monkeypatch):
    a, sconfig = CASES[case]()
    ctx = torus_context(a, sconfig)
    rng = random.Random(f"screen-equivalence:{case}")
    asked = []                  # profiles asked for shifts, per screen

    def counting_shifts(*args):
        asked[-1] += 1
        return candidate_shifts(*args)

    monkeypatch.setattr(minima, "candidate_shifts", counting_shifts)
    pruned = False
    outcomes = set()
    for _ in range(10):
        box = _random_box(ctx, rng, rng.randint(0, 10))
        for profile in profiles_for_box(ctx, box)[:4]:
            assert candidate_shifts(ctx, box, profile) == \
                _reference_shifts(ctx, box, profile)
        _, least = _reference_certify(ctx, box, F(0))
        # below the least bound, exactly at it (a tie that only the exact
        # value decides), just above it, and well above it
        for t in (least / 2, least, least + F(1, 10**9), least * 2):
            asked.append(0)
            got = _certify_box(ctx, box, t)
            assert got == _reference_certify(ctx, box, t)
            outcomes.add(got[0] is None)
            assert 1 <= asked[-1] <= len(profiles_for_box(ctx, box))
            # a box that fails asks every profile the floor does not skip
            if got[0] is None:
                pruned |= asked[-1] < len(profiles_for_box(ctx, box))
    assert outcomes == {True, False}
    # the profile floor skips profiles wherever there is more than one
    assert pruned == bool(sconfig.finite_places)


# boxes where a less congruent profile holds the least bound, so that a
# profile skipped on any floor above the exact one changes the result
SKIP_BOXES = (
    ("Q_S23", CoverBox((F(5, 8),), (F(11, 16),), (F(0),), (0, 1))),
    ("Qi_S2", CoverBox((F(0), F(1, 2)), (F(1), F(5, 8)), (F(1), F(0)),
                       (1,))),
)


@pytest.mark.parametrize("case, box", SKIP_BOXES)
def test_skipped_profiles_hold_no_least_bound(case, box):
    a, sconfig = CASES[case]()
    ctx = torus_context(a, sconfig)
    profiles = profiles_for_box(ctx, box)
    per_profile = [min([_exact_screen_bound(ctx, box, gamma, profile)
                        for gamma in candidate_shifts(ctx, box, profile)],
                       default=None) for profile in profiles]
    _, least = _reference_certify(ctx, box, F(0))
    # the first profile to reach the least bound is not the most congruent
    assert per_profile.index(least) > 0
    for t in (least, least * 2):
        assert _certify_box(ctx, box, t) == _reference_certify(ctx, box, t)


# far above every bound of the initial box, so its first shift wins from
# its enclosure alone
_DECISIVE_T = F(10**6)


def test_decisive_winner_checks_the_canonical_bound(monkeypatch):
    a, sconfig = _q_23()
    ctx = TorusContext(a, sconfig)
    entry, bound = _certify_box(ctx, initial_box(ctx), _DECISIVE_T)
    assert entry is not None and bound < _DECISIVE_T
    # a canonical bound above the threshold, hence above the enclosure; a
    # fresh context, since box_entry keeps the entries it made
    exact = covering.box_bound
    monkeypatch.setattr(covering, "box_bound",
                        lambda c, b, g: exact(c, b, g) + _DECISIVE_T)
    ctx = TorusContext(a, sconfig)
    with pytest.raises(AssertionError,
                       match="canonical bound exceeds screening"):
        _certify_box(ctx, initial_box(ctx), _DECISIVE_T)


def test_decisive_winner_check_survives_optimize():
    # `python -O` strips assert statements; the soundness check must stay
    script = (
        "from fractions import Fraction\n"
        "from euclidmin import covering, make_field, make_sconfig\n"
        "from euclidmin.minima import _certify_box\n"
        "from euclidmin.torus import torus_context\n"
        "field = make_field([-1, 1])\n"
        "ctx = torus_context(field.maximal_order(),\n"
        "                    make_sconfig(field, [2, 3]))\n"
        f"t = Fraction({_DECISIVE_T.numerator})\n"
        "exact = covering.box_bound\n"
        "covering.box_bound = lambda c, b, g: exact(c, b, g) + t\n"
        "try:\n"
        "    _certify_box(ctx, covering.initial_box(ctx), t)\n"
        "except AssertionError as exc:\n"
        "    ok = 'canonical bound exceeds screening' in str(exc)\n"
        "    raise SystemExit(0 if ok else 1)\n"
        "raise SystemExit(1)\n")
    done = _fresh_python(script, "-O")
    assert done.returncode == 0, done.stderr.decode()


@pytest.mark.parametrize("case", ["Q_S23", "Qi_S2"])
def test_congruent_point_solves_the_congruence(case):
    a, sconfig = CASES[case]()
    ctx = torus_context(a, sconfig)
    places = sconfig.finite_places
    rng = random.Random(f"congruent-point:{case}")
    solved = 0
    for _ in range(12):
        box = _random_box(ctx, rng, rng.randint(0, 12))
        center = box.center_element(ctx)
        for profile in profiles_for_box(ctx, box):
            if not any(m > 0 for m in profile):
                continue
            lattice = ctx.s_lattice([min(m, 0) for m in profile])
            d0 = lattice.den
            modulus = ctx.s_lattice(
                [m + int_valuation(d0, v.p) * v.e if m > 0 else 0
                 for v, m in zip(places, profile)], over_order=True)
            got = shift_into_depths(ctx, center, profile)
            assert got == CongruenceSystem(lattice, d0, modulus).solve(
                center * d0)
            solved += 1
            assert lattice.contains(got)
            diff = got - center
            for v, m in zip(places, profile):
                assert m <= 0 or diff.is_zero() or valuation(diff, v) >= m
    assert solved >= 10


def _reference_profiles(depths):
    """The profile schedule built from scratch: the sorted product of the
    per-place depth menus, cut at PROFILE_CAP, with the uncut length."""
    menus = []
    for k in depths:
        menu = sorted({k, max(k - 1, 0), max(k - 2, 0), 0, -1,
                       -covering.PROFILE_NEG_DEPTH}, reverse=True)
        menus.append([m for m in menu if m <= k])
    out = sorted(itertools.product(*menus), key=lambda pr: (-sum(pr), pr))
    return out[:covering.PROFILE_CAP], len(out)


def test_profile_schedule_is_shared_and_matches_the_sorted_product():
    field = make_field([-1, 1])
    s235 = make_sconfig(field, [2, 3, 5])
    ctx = torus_context(field.maximal_order(), s235)
    other_ideal = torus_context(
        ideal_from_gens([field.element([F(3, 7)])]), s235)
    # equal residue norms: two S configs of Q with S = {2, 3}, one place of
    # norm 2 over Q and over Q(i), and no finite place at all
    s23 = make_sconfig(field, [2, 3])
    pairs = [(ctx, other_ideal),
             (torus_context(*CASES["Q_S23"]()),
              torus_context(field.maximal_order(), s23)),
             (torus_context(field.maximal_order(), make_sconfig(field, [2])),
              torus_context(*CASES["Qi_S2"]())),
             (torus_context(*CASES["Qsqrt-5_class"]()),
              torus_context(*CASES["cubic_unit"]()))]
    contexts = [c for pair in pairs for c in pair]
    contexts.append(torus_context(*CASES["Qsqrt2_S7"]()))
    rng = random.Random("profile-schedule")
    for c in contexts:
        places = len(c.sconfig.finite_places)
        depth_vectors = [tuple(rng.randint(0, 6) for _ in range(places))
                         for _ in range(12)]
        if places == 3:
            depth_vectors.append((3, 4, 5))
        for depths in depth_vectors:
            box = initial_box(c)._replace(exponents=depths)
            schedule = covering.box_schedule(c, box)
            assert type(schedule) is tuple
            assert all(type(item) is tuple and type(item[0]) is tuple
                       for item in schedule)
            want, uncut = _reference_profiles(depths)
            assert [pr for pr, _, _ in schedule] == want
            assert list(profiles_for_box(c, box)) == want
            for profile, num, den in schedule:
                assert (num, den) == profile_factor(c, profile)
            assert len(schedule) == min(uncut, covering.PROFILE_CAP)
            if depths == (3, 4, 5):
                assert (uncut, len(schedule)) == (216, 48)
    for a, b in pairs:
        assert a is not b
        for _ in range(6):
            depths = tuple(rng.randint(0, 6)
                           for _ in a.sconfig.finite_places)
            box_a = initial_box(a)._replace(exponents=depths)
            box_b = initial_box(b)._replace(exponents=depths)
            assert covering.box_schedule(a, box_a) is \
                covering.box_schedule(b, box_b)


def test_covering_builds_each_schedule_once(monkeypatch):
    field = make_field([-1, 1])
    sconfig = make_sconfig(field, [2, 3, 5])
    seen = set()                # box depths that _certify_box was asked

    def recording(ctx, box, t):
        seen.add(box.exponents)
        return _certify_box(ctx, box, t)

    monkeypatch.setattr(minima, "_certify_box", recording)
    covering.profile_schedule.cache_clear()
    cert = minima.covering_verify(field.maximal_order(), sconfig, F(17, 100))
    assert isinstance(cert, covering.CoveringCertificate)
    info = covering.profile_schedule.cache_info()
    assert len(seen) > 1 and info.hits > 0
    assert info.misses == len(seen)
