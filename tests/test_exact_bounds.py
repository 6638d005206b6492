"""Exact bounds on integers, and certificate replay on integers.

The reference below is the interval evaluator that the integer one
replaced, kept as written: each bound must be the same rational. The
replay tests build small certificates by hand whose boxes have coordinates
off the dyadic grid, so that the integer disjointness sweep and measure sum
are checked on common denominators other than powers of two.
"""

import random
from fractions import Fraction as F

import pytest

from euclidmin import make_field, make_sconfig, verify_certificate
from euclidmin.covering import (BOUND_WIDTH, CertEntry, CoverBox,
                                CoveringCertificate, _finite_factor,
                                box_arch, box_bound, candidate_shifts,
                                exact_bound, profile_factor, profiles_for_box)
from euclidmin.fields import embedding_rows
from euclidmin.intervals import Iv
from euclidmin.places import valuation
from euclidmin.torus import torus_context
from test_screen import (CASES, _huge_element, _off_grid, _random_box,
                         _random_element)


# -- the reference: rational intervals throughout ---------------------------


def _ref_arch(ctx, box):
    rows = [embedding_rows(b, BOUND_WIDTH) for b in ctx.basis]
    n = ctx.field.degree
    out = []
    for coord in range(n):
        acc = Iv.point(0)
        for j in range(n):
            acc = acc + Iv(box.lo[j], box.hi[j]) * rows[j][coord]
        out.append(acc)
    return out


def _ref_norm_bound(ctx, arch, gamma, finite):
    g = embedding_rows(gamma, BOUND_WIDTH)
    r1, r2 = ctx.field.signature
    bound = finite
    for i in range(r1):
        bound *= (arch[i] - g[i]).abs().hi
    for i in range(r1, r1 + 2 * r2, 2):
        bound *= ((arch[i] - g[i]).sq() + (arch[i + 1] - g[i + 1]).sq()).hi
    return bound / ctx.s_norm_a


def _ref_box_bound(ctx, box, gamma):
    diff = box.center_element(ctx) - gamma
    finite = F(1)
    for v, k in zip(ctx.sconfig.finite_places, box.exponents):
        m = k if diff.is_zero() else min(k, valuation(diff, v))
        finite *= F(v.residue_norm()) ** (-m)
    return _ref_norm_bound(ctx, _ref_arch(ctx, box), gamma, finite)


@pytest.mark.parametrize("case", sorted(CASES))
def test_integer_bounds_equal_the_interval_bounds(case):
    a, sconfig = CASES[case]()
    ctx = torus_context(a, sconfig)
    rng = random.Random(f"exact-bounds:{case}")
    checked = huge = 0
    for i in range(10):
        box = _random_box(ctx, rng, rng.randint(0, 10))
        if i % 2:
            box = _off_grid(box)
        ref_arch = _ref_arch(ctx, box)
        arch = box_arch(ctx, box)
        assert [(F(lo, d), F(hi, d)) for lo, hi, d in arch] == \
            [(iv.lo, iv.hi) for iv in ref_arch]
        profiles = profiles_for_box(ctx, box)
        for profile in rng.sample(profiles, min(2, len(profiles))):
            num, den = profile_factor(ctx, profile)
            shifts = candidate_shifts(ctx, box, profile)[:4]
            shifts += [_random_element(ctx.field, rng),
                       _huge_element(ctx.field, rng)]
            for gamma in shifts:
                want = _ref_norm_bound(ctx, ref_arch, gamma, F(num, den))
                got = exact_bound(ctx, arch, gamma, num, den)
                assert type(got) is F and got == want
                assert box_bound(ctx, box, gamma) == \
                    _ref_box_bound(ctx, box, gamma)
                checked += 1
                huge += max(gamma.den, *map(abs, gamma.nums)) > 2**53
    assert checked >= 60 and huge >= 10


def test_finite_factor_is_an_integer_pair():
    a, sconfig = CASES["Q_S23"]()
    ctx = torus_context(a, sconfig)
    field = ctx.field
    places = sconfig.finite_places
    # x - gamma = 12/5 at depth (3, 3): v_2 = 2 and v_3 = 1 stop short of
    # the depth; 1/6 has negative valuations
    for diff, want in ((field.element([F(12, 5)]), F(1, 4 * 3)),
                       (field.element([F(1, 6)]), F(6)),
                       (field.zero(), F(1, 8 * 27))):
        num, den = _finite_factor(diff, places, (3, 3))
        assert (type(num), type(den)) == (int, int) and F(num, den) == want


# -- replay on integers -----------------------------------------------------


def _certificate(ctx, boxes, t=F(10**6)):
    """A certificate of the boxes with shift 0 and their replayed bounds."""
    zero = ctx.field.zero()
    entries = tuple(CertEntry(box, zero.coords, box_bound(ctx, box, zero))
                    for box in boxes)
    return CoveringCertificate(t, entries, ctx.a_part.hnf, ctx.a_part.den)


def _q_box(lo, hi, center, exponents):
    return CoverBox((F(lo),), (F(hi),), (F(center),), exponents)


def _q_23_ctx():
    field = make_field([-1, 1])
    return torus_context(field.maximal_order(), make_sconfig(field, [2, 3]))


def test_replay_rejects_overlap_in_degree_two():
    field = make_field([1, 0, 1])
    ctx = torus_context(field.maximal_order(), make_sconfig(field, []))
    zero = (F(0), F(0))

    def box(lo, hi):
        return CoverBox(lo, hi, zero, ())

    # measure 2/3 + 1/3 = 1, overlapping on [1/3, 2/3) x [0, 1/2)
    overlap = [box((F(0), F(0)), (F(2, 3), F(1))),
               box((F(1, 3), F(0)), (F(1), F(1, 2)))]
    with pytest.raises(AssertionError, match="overlapping boxes"):
        verify_certificate(ctx, _certificate(ctx, overlap))
    # boxes that only touch, along x = 1/3 and y = 2/7
    touching = [box((F(0), F(0)), (F(1, 3), F(1))),
                box((F(1, 3), F(0)), (F(1), F(2, 7))),
                box((F(1, 3), F(2, 7)), (F(1), F(1)))]
    verify_certificate(ctx, _certificate(ctx, touching))


def test_replay_checks_classes_of_overlapping_boxes():
    ctx = _q_23_ctx()
    # measure 1/3 + 1/3 + 1/3; the first two overlap on [1/3, 2/3) in the
    # same class 0 mod 2
    same = [_q_box(0, F(2, 3), 0, (1, 0)), _q_box(F(1, 3), 1, 0, (1, 0)),
            _q_box(0, F(2, 3), 1, (1, 0))]
    # measure 1/3 + 2/9 + 1/3 + 1/9; the first two overlap on [1/3, 2/3)
    # in 0 mod 2 and 1 mod 3, which meet at 4 mod 6
    crt = [_q_box(0, F(2, 3), 0, (1, 0)), _q_box(F(1, 3), 1, 1, (0, 1)),
           _q_box(0, 1, 2, (0, 1)), _q_box(0, F(1, 3), 1, (0, 1))]
    for boxes in (same, crt):
        with pytest.raises(AssertionError, match="overlapping boxes"):
            verify_certificate(ctx, _certificate(ctx, boxes))
    # measure 1/3 + 1/3 + 1/6 + 1/6; boxes that overlap lie in the disjoint
    # classes 0 and 1 mod 2, the others touch at 1/3 or 2/3
    apart = [_q_box(0, F(2, 3), 0, (1, 0)), _q_box(F(1, 3), 1, 1, (1, 0)),
             _q_box(0, F(1, 3), 1, (1, 0)), _q_box(F(2, 3), 1, 0, (1, 0))]
    verify_certificate(ctx, _certificate(ctx, apart))
    # mod 9: the classes 1 and 4 overlap on [2/7, 5/7) but are disjoint,
    # although they agree mod 3
    deeper = [_q_box(0, 1, c, (0, 2)) for c in range(9) if c not in (1, 4)]
    deeper += [_q_box(0, F(5, 7), 1, (0, 2)), _q_box(F(2, 7), 1, 4, (0, 2)),
               _q_box(F(5, 7), 1, 1, (0, 2)), _q_box(0, F(2, 7), 4, (0, 2))]
    verify_certificate(ctx, _certificate(ctx, deeper))
    # the same classes, but 1 and 10 mod 9: one class twice
    clash = deeper[:-3] + [_q_box(F(2, 7), 1, 10, (0, 2))] + deeper[-2:]
    with pytest.raises(AssertionError, match="overlapping boxes"):
        verify_certificate(ctx, _certificate(ctx, clash))


def test_replay_measure_is_exact_on_common_denominators():
    ctx = _q_23_ctx()
    # 1/3 + 2/3 of the class 0 mod 2 and all of 1 mod 2: exactly one
    whole = [_q_box(0, F(1, 3), 0, (1, 0)), _q_box(F(1, 3), 1, 0, (1, 0)),
             _q_box(0, 1, 1, (1, 0))]
    verify_certificate(ctx, _certificate(ctx, whole))
    short = [whole[0], _q_box(F(1, 3), F(6, 7), 0, (1, 0)), whole[2]]
    with pytest.raises(AssertionError, match="boxes measure 13/14, expected"):
        verify_certificate(ctx, _certificate(ctx, short))
