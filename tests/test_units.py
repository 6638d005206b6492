from fractions import Fraction as F
from math import isqrt

import pytest

from euclidmin import embed, fundamental_unit, ideal_from_gens, \
    make_field, torsion_generator
from euclidmin.errors import UnsupportedDegree
from euclidmin.qmath import squarefree_part
from euclidmin.units import fundamental_solution, principal_power_generator


def test_fundamental_solution():
    known = {5: (1, 1), 8: (2, 1), 12: (4, 1), 13: (3, 1), 61: (39, 5),
             184: (48670, 3588)}
    for disc, tu in known.items():
        assert fundamental_solution(disc) == tu
        t, u = tu
        assert t * t - disc * u * u in (4, -4)


def test_fundamental_unit_examples(field_sqrt2):
    u = fundamental_unit(field_sqrt2)
    assert u == field_sqrt2.one() + field_sqrt2.gen()
    assert u.norm() == -1
    k5 = make_field([-5, 0, 1])
    golden = (k5.one() + k5.gen()) / 2
    assert fundamental_unit(k5) == golden
    k3 = make_field([-3, 0, 1])
    assert fundamental_unit(k3) == k3.from_rational(2) + k3.gen()
    k13 = make_field([-13, 0, 1])
    assert fundamental_unit(k13) == (k13.from_rational(3) + k13.gen()) / 2


def _least_t(du2):
    """The least t >= 1 with t^2 - du2 = +-4, or None."""
    for t2 in (du2 - 4, du2 + 4):
        t = isqrt(max(t2, 0))
        if t >= 1 and t * t == t2:
            return t
    return None


UNIT_FAILURES_BEFORE = (61, 69, 93, 109, 133, 149, 157, 181, 205, 213, 237,
                        253, 277, 301, 309, 317, 341, 397)


def test_fundamental_unit_against_brute_force():
    """Every squarefree d in [2, 400), as x^2 - d and, for d = 1 mod 4, as
    x^2 - x - (d-1)/4: the unit is (t + u*sqrt(D))/2, > 1 at the last real
    place, with the least solution of t^2 - D*u^2 = +-4 (least u, searched
    up to 2000, then least t). The d of UNIT_FAILURES_BEFORE once got the
    cube of that unit."""
    checked = set()
    for d in range(2, 400):
        if squarefree_part(d) != d:
            continue
        polys = [[-d, 0, 1]]
        if d % 4 == 1:
            polys.append([-(d - 1) // 4, -1, 1])
        for poly in polys:
            field = make_field(poly)
            disc = field.discriminant
            u = next((u for u in range(1, 2001)
                      if _least_t(disc * u * u)), None)
            if u is None:
                continue
            t = _least_t(disc * u * u)
            unit = fundamental_unit(field)
            # (t +- u*sqrt(D))/2 are the roots of X^2 - t*X + (t^2 - D*u^2)/4;
            # at a real place only the + root exceeds 1
            product = unit * (unit - field.from_rational(t))
            assert product == field.from_rational(
                (disc * u * u - t * t) // 4), poly
            assert embed(unit, F(1, 2**20)).reals[-1].lo > 1, poly
            checked.add(d)
    assert set(UNIT_FAILURES_BEFORE) <= checked
    assert len(checked) == 177


def test_fundamental_unit_presentation_independent():
    # x^2 - x - 1 presents Q(sqrt5) with the golden ratio as generator
    kg = make_field([-1, -1, 1])
    u = fundamental_unit(kg)
    assert abs(u.norm()) == 1
    assert u in (kg.gen(), kg.element([1, 1]), kg.element([0, 1]))


def test_fundamental_unit_rejects_non_real(field_qi, field_q):
    with pytest.raises(UnsupportedDegree):
        fundamental_unit(field_qi)
    with pytest.raises(UnsupportedDegree):
        fundamental_unit(field_q)


def test_torsion_generators(field_q, field_qi, field_sqrtm5):
    t, o = torsion_generator(field_q)
    assert o == 2 and t == -field_q.one()
    t, o = torsion_generator(field_qi)
    assert o == 4 and t in (field_qi.gen(), -field_qi.gen())
    t, o = torsion_generator(field_sqrtm5)
    assert o == 2
    kw = make_field([1, 1, 1])
    t, o = torsion_generator(kw)
    assert o == 6 and (t ** 6) == kw.one() and (t ** 3) == -kw.one()


def test_principal_power_generator(field_qi, field_sqrtm5):
    P = ideal_from_gens([field_qi.from_rational(2) + field_qi.gen()])
    h, alpha = principal_power_generator(P)
    assert h == 1 and ideal_from_gens([alpha]) == P
    I = ideal_from_gens([field_sqrtm5.from_rational(2),
                         field_sqrtm5.one() + field_sqrtm5.gen()])
    h, alpha = principal_power_generator(I)
    assert h == 2 and ideal_from_gens([alpha]) == I * I
    k10 = make_field([-10, 0, 1])
    P3 = ideal_from_gens([k10.from_rational(3), k10.one() + k10.gen()])
    h, alpha = principal_power_generator(P3)
    assert h == 2 and ideal_from_gens([alpha]) == P3 * P3
