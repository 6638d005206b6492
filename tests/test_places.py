import random
from fractions import Fraction as F

import pytest

from euclidmin import (IndexDivisor, NotAnSUnit, NotPrime, RankDeficient,
                       RankUndetermined, ZeroElement, ideal_from_gens,
                       make_field, make_sconfig, places_above, s_norm,
                       shrinking_unit, strip_s_part, valuation,
                       verify_s_unit_basis)
from euclidmin.places import SConfig, ideal_place_valuation
from euclidmin.qmath import factorize


def test_places_above_examples(field_qi, field_q):
    split = places_above(field_qi, 5)
    assert len(split) == 2
    assert all(v.e == 1 and v.f == 1 for v in split)
    inert = places_above(field_qi, 3)
    assert len(inert) == 1 and inert[0].f == 2
    ram = places_above(field_qi, 2)
    assert len(ram) == 1 and ram[0].e == 2 and ram[0].f == 1
    q7 = places_above(field_q, 7)
    assert len(q7) == 1 and q7[0].e == q7[0].f == 1


def test_places_above_partition():
    rng = random.Random(3)
    fields = [make_field([1, 0, 1]), make_field([-2, 0, 1]),
              make_field([-1, -1, 0, 1]), make_field([1, 1, 1, 1, 1])]
    primes = [2, 3, 5, 7, 11, 13]
    for field in fields:
        for p in primes:
            if field.index % p == 0:
                continue
            places = places_above(field, p)
            assert sum(v.e * v.f for v in places) == field.degree


def test_places_above_errors(field_qi):
    with pytest.raises(NotPrime):
        places_above(field_qi, 4)
    k5 = make_field([-5, 0, 1])
    with pytest.raises(IndexDivisor):
        places_above(k5, 2)


def test_valuation_examples(field_qi, field_q):
    v2 = places_above(field_qi, 2)[0]
    assert valuation(field_qi.from_rational(2), v2) == 2
    assert valuation(field_qi.one() + field_qi.gen(), v2) == 1
    assert valuation(field_qi.one(), v2) == 0
    v5 = places_above(field_q, 5)[0]
    assert valuation(field_q.from_rational(F(1, 5)), v5) == -1
    with pytest.raises(ZeroElement):
        valuation(field_q.zero(), v5)


def test_uniformizers(field_qi):
    for p in (2, 3, 5, 13):
        for v in places_above(field_qi, p):
            assert valuation(v.uniformizer(), v) == 1


def test_s_norm_examples(field_q, s_q_23):
    assert s_norm(field_q.from_rational(6), s_q_23) == 1
    assert s_norm(field_q.one(), s_q_23) == 1
    assert s_norm(field_q.from_rational(F(1, 5)), s_q_23) == F(1, 5)
    assert s_norm(field_q.zero(), s_q_23) == 0


def test_s_norm_matches_field_norm_at_s_inf(field_qi, s_qi_inf):
    rng = random.Random(5)
    for _ in range(40):
        x = field_qi.element([F(rng.randint(-9, 9), rng.randint(1, 5))
                              for _ in range(2)])
        if x.is_zero():
            continue
        assert s_norm(x, s_qi_inf) == abs(x.norm())


def prime_to_s_part(r: F, primes) -> F:
    """Magnitude of r with all powers of the given primes removed.

    Independent oracle for the rational S-norm: N_S over Q of a nonzero
    rational equals its prime-to-S part.
    """
    if r == 0:
        return F(0)
    num, den = abs(r.numerator), r.denominator
    for p in primes:
        while num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
    return F(num, den)


def test_s_norm_rational_oracle(field_q, s_q_23, s_q_2):
    rng = random.Random(29)
    for sconfig, ps in ((s_q_23, [2, 3]), (s_q_2, [2])):
        for _ in range(60):
            x = F(rng.randint(-99, 99) or 1, rng.randint(1, 99))
            assert s_norm(field_q.from_rational(x), sconfig) == \
                prime_to_s_part(x, ps)


def _support_places(field, x):
    nrm = abs(x.norm())
    primes = set(factorize(nrm.numerator)) | set(factorize(nrm.denominator))
    out = []
    for p in sorted(primes):
        out.extend(places_above(field, p))
    return out


def test_product_formula(field_qi, field_sqrt2, s_qi_inf, s_sqrt2_inf):
    rng = random.Random(41)
    for field, sconfig in ((field_qi, s_qi_inf), (field_sqrt2, s_sqrt2_inf)):
        for _ in range(25):
            x = field.element([F(rng.randint(-9, 9), rng.randint(1, 6))
                               for _ in range(2)])
            if x.is_zero():
                continue
            total = s_norm(x, sconfig)
            for v in _support_places(field, x):
                total *= F(v.residue_norm()) ** (-valuation(x, v))
            assert total == 1


def test_s_norm_multiplicative(field_qi):
    s5 = make_sconfig(field_qi, [5], place_indices={5: [0]})
    rng = random.Random(43)
    for _ in range(40):
        x = field_qi.element([F(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(2)])
        y = field_qi.element([F(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(2)])
        if x.is_zero() or y.is_zero():
            continue
        assert s_norm(x * y, s5) == s_norm(x, s5) * s_norm(y, s5)


def test_verify_s_unit_basis(field_q, field_sqrt2):
    cfg = make_sconfig(field_q, [2, 3])
    assert cfg.verified
    gens = [u.as_rational() for u in cfg.unit_gens]
    assert sorted(abs(g) for g in gens) == [2, 3]
    cfg2 = make_sconfig(field_sqrt2, [])
    assert cfg2.verified and len(cfg2.unit_gens) == 1
    assert s_norm(cfg2.unit_gens[0], cfg2) == 1
    with pytest.raises(NotAnSUnit):
        verify_s_unit_basis(SConfig(field_sqrt2, []),
                            [field_sqrt2.from_rational(2)])
    with pytest.raises(RankDeficient):
        verify_s_unit_basis(SConfig(field_q, places_above(field_q, 2)), [])


def test_dependent_s_units_are_refused(field_q, field_qi):
    # the right number of S-units whose log vectors are dependent: the
    # log-rank determinant is 0, so no precision certifies it
    s23 = SConfig(field_q, places_above(field_q, 2) + places_above(field_q, 3))
    for gens in ((2, 4), (6, 36)):
        with pytest.raises(RankUndetermined):
            verify_s_unit_basis(s23, [field_q.from_rational(g) for g in gens])
    # i is torsion: its log vector is 0
    with pytest.raises(RankUndetermined):
        verify_s_unit_basis(SConfig(field_qi, places_above(field_qi, 2)),
                            [field_qi.gen()])


def test_verified_units_have_unit_s_norm(field_sqrt2, s_sqrt2_inf, s_q_23):
    for cfg in (s_sqrt2_inf, s_q_23):
        for u in cfg.unit_gens:
            assert s_norm(u, cfg) == 1


def test_shrinking_unit_examples(field_q, s_q_23):
    w_inf = s_q_23.places[0]
    eps = shrinking_unit(s_q_23, w_inf)
    assert eps.as_rational() == 6
    w2 = next(v for v in s_q_23.finite_places if v.p == 2)
    assert shrinking_unit(s_q_23, w2).as_rational() == F(3, 4)
    w3 = next(v for v in s_q_23.finite_places if v.p == 3)
    assert shrinking_unit(s_q_23, w3).as_rational() == F(2, 3)


def test_shrinking_unit_certified_small(field_qi):
    cfg = make_sconfig(field_qi, [5])
    for w in cfg.places:
        eps = shrinking_unit(cfg, w)
        for v in cfg.finite_places:
            if v is w:
                continue
            assert v.abs_value(eps) < 1
        assert s_norm(eps, cfg) == 1


def test_strip_s_part(field_qi):
    cfg = make_sconfig(field_qi, [5], place_indices={5: [0]})
    v5 = cfg.finite_places[0]
    I = ideal_from_gens([field_qi.from_rational(5)])
    stripped = strip_s_part(I, cfg)
    assert ideal_place_valuation(stripped, v5) == 0
    from euclidmin import ideal_norm
    assert ideal_norm(stripped) == 5  # only the conjugate place remains
