import itertools
import random
from fractions import Fraction as F

import pytest

from euclidmin import (EuclidMinError, IndexDivisor, NotAnSUnit, NotPrime,
                       RankDeficient, RankUndetermined, ZeroElement,
                       ideal_from_gens, make_field, make_sconfig,
                       places_above, s_norm, shrinking_unit, strip_s_part,
                       valuation, verify_s_unit_basis)
from euclidmin.places import SConfig, ideal_place_valuation
from euclidmin.polynomials import (certify_irreducible, factor_mod_p, pmul,
                                   squarefree_decompose_mod_p)
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


def test_factor_mod_p_counts_a_leftover_p_th_power_once():
    # x^3 + x = x (x + 1)^2 over F_2: the squarefree split leaves the
    # square (x + 1)^2, whose multiplicity 2 must not be doubled again
    assert factor_mod_p([0, 1, 0, 1], 2) == [([0, 1], 1), ([1, 1], 2)]
    assert squarefree_decompose_mod_p([0, 1, 0, 1], 2) == [([0, 1], 1),
                                                           ([1, 1], 2)]


@pytest.mark.parametrize("p", [2, 3])
def test_mod_p_factorizations_multiply_back(p):
    # every monic f of degree 1-6 over F_p is the product of its pieces
    # g^m, each g monic of positive degree and no g twice
    for n in range(1, 7):
        for low in itertools.product(range(p), repeat=n):
            f = list(low) + [1]
            for pieces in (squarefree_decompose_mod_p(f, p),
                           factor_mod_p(f, p)):
                product = [1]
                for g, m in pieces:
                    assert m >= 1 and len(g) > 1 and g[-1] == 1, (f, pieces)
                    for _ in range(m):
                        product = pmul(product, g, p)
                assert product == f, (f, pieces)
                gs = [tuple(g) for g, _ in pieces]
                assert len(set(gs)) == len(gs), (f, pieces)


@pytest.mark.parametrize("coeffs, p", [
    ([-4, -5, 6, 1], 2), ([-4, -3, -4, 1], 2), ([-2, -2, -1, -1, 1], 2),
    ([-1, -2, 0, -1, 1], 3)])
def test_places_above_where_f_mod_p_has_a_p_th_power(coeffs, p):
    places = places_above(make_field(coeffs), p)
    assert sum(v.e * v.f for v in places) == len(coeffs) - 1


def test_places_above_over_a_coefficient_box():
    # every irreducible monic cubic with coefficients in [-4, 4] at p = 2,
    # and quartic with coefficients in [-2, 2] at p = 2 and 3, whose index
    # is prime to p: 416, 341 and 354 fields
    counts = []
    for n, r, p in ((3, 4, 2), (4, 2, 2), (4, 2, 3)):
        count = 0
        for low in itertools.product(range(-r, r + 1), repeat=n):
            coeffs = list(low) + [1]
            try:
                certify_irreducible(coeffs)
            except EuclidMinError:
                continue
            field = make_field(coeffs)
            if field.index % p == 0:
                continue
            count += 1
            places = places_above(field, p)
            assert sum(v.e * v.f for v in places) == n, (coeffs, p)
        counts.append(count)
    assert counts == [416, 341, 354]


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


# (poly, primes): split, inert and ramified places. Q at 2, 3 and 5; Q(i)
# at 2 (ramified); Q(sqrt -5) at 2 (ramified) and 3 (split); x^3 - x - 1
# at 2 (inert), 5 (degrees 1 and 2) and 23 (e = 2 and e = 1)
CAP_CASES = (([-1, 1], (2, 3, 5)), ([1, 0, 1], (2,)), ([5, 0, 1], (2, 3)),
             ([-1, -1, 0, 1], (2, 5, 23)))


@pytest.mark.parametrize("poly, primes", CAP_CASES)
def test_capped_valuation_is_the_min_with_the_cap(poly, primes):
    field = make_field(poly)
    places = [v for p in primes for v in places_above(field, p)]
    sconfig = SConfig(field, places)
    rng = random.Random(f"capped-valuation:{poly}")
    seen = set()
    for _ in range(60):
        # denominators divisible by p, numerators scaled by powers of p
        p = rng.choice(primes)
        den = p ** rng.randint(0, 3) * rng.choice([1, 7, 11])
        scale = p ** rng.randint(0, 4)
        x = field.element([F(rng.randint(-40, 40) * scale, den)
                           for _ in range(field.degree)])
        if x.is_zero():
            continue
        s_part = F(1)
        for v in places:
            w = valuation(x, v)
            seen.add((w > 4) - (w < 0))
            for cap in range(5):
                assert valuation(x, v, cap) == min(w, cap), (x, v, cap)
            s_part *= F(v.residue_norm()) ** -w
        # s_norm counts each valuation with its norm bound as the step bound
        assert s_norm(x, sconfig) == abs(x.norm()) * s_part
    # valuations below 0, inside [0, 4] and above every cap all occur
    assert seen == {-1, 0, 1}


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


def test_s_unit_basis_refusals(field_q, field_qi):
    # (1 + i)(2 + i)/(2 - i) has S-norm 1 for S = {inf, (1 + i)} but its
    # support meets the places above 5
    s2 = SConfig(field_qi, places_above(field_qi, 2))
    one_i, two_i = field_qi.element([1, 1]), field_qi.element([2, 1])
    u = one_i * two_i / field_qi.element([2, -1])
    assert s_norm(u, s2) == 1
    with pytest.raises(NotAnSUnit):
        verify_s_unit_basis(s2, [u])
    # one generator too many
    with pytest.raises(RankDeficient):
        verify_s_unit_basis(SConfig(field_q, places_above(field_q, 2)),
                            [field_q.from_rational(2)] * 2)


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


def test_shrinking_unit_is_small_at_every_other_place():
    # Q(sqrt(-2)) with S = {inf} and both places above 3: for w above 3
    # the search meets a quotient of the two generators, of absolute value
    # exactly 1 at the complex place, where |x| is the norm, before a
    # shrinking unit; its embedding interval straddles 1
    cfg = make_sconfig(make_field([2, 0, 1]), [3])
    for w in cfg.places:
        eps = shrinking_unit(cfg, w)
        for v in cfg.places:
            if v != w:
                assert (v.abs_value(eps) if v.is_finite()
                        else abs(eps.norm())) < 1, (w, v)


def test_strip_s_part(field_qi):
    cfg = make_sconfig(field_qi, [5], place_indices={5: [0]})
    v5 = cfg.finite_places[0]
    I = ideal_from_gens([field_qi.from_rational(5)])
    stripped = strip_s_part(I, cfg)
    assert ideal_place_valuation(stripped, v5) == 0
    from euclidmin import ideal_norm
    assert ideal_norm(stripped) == 5  # only the conjugate place remains
