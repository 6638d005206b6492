import itertools
import random
from fractions import Fraction as F
from math import floor

import pytest

from euclidmin import (QmodZ, char_pair, ideal_from_gens, ideal_norm,
                       inverse_different, make_field, make_sconfig, orbit,
                       places_above, reduce_mod, s_trace_dual, torsion_reps,
                       valuation)
from euclidmin.covering import gamma_in_s_ideal
from euclidmin.errors import SearchExhausted
from euclidmin.qmath import int_valuation
from euclidmin.torus import (CongruenceSystem, local_trace_polar,
                             shift_into_depths, torus_context)
from test_covering import _fresh_python


def test_reduce_mod_examples(field_q, s_q_2):
    Z = field_q.maximal_order()
    rho, gam = reduce_mod(Z, s_q_2, field_q.from_rational(F(13, 10)))
    assert rho.as_rational() == F(4, 5) and gam.as_rational() == F(1, 2)
    # canonical representative of 7/10 clears the 2-adic denominator
    rho, gam = reduce_mod(Z, s_q_2, field_q.from_rational(F(7, 10)))
    assert rho.as_rational() == F(1, 5) and gam.as_rational() == F(1, 2)
    rho, gam = reduce_mod(Z, s_q_2, field_q.from_rational(F(1, 5)))
    assert rho.as_rational() == F(1, 5) and gam.is_zero()
    rho, gam = reduce_mod(Z, s_q_2, field_q.from_rational(F(-1, 5)))
    assert rho.as_rational() == F(4, 5) and gam.as_rational() == -1


def _in_fundamental_domain(a, sconfig, rho):
    """Coordinates over the a-part basis in [0, 1), integral at S."""
    coords = torus_context(a, sconfig).a_part.coords_in_basis(rho)
    return all(0 <= c < 1 for c in coords) and (
        rho.is_zero() or all(valuation(rho, v) >= 0
                             for v in sconfig.finite_places))


def test_reduce_mod_idempotent_and_member(field_q, field_qi, s_q_23):
    rng = random.Random(10)
    Z = field_q.maximal_order()
    for _ in range(60):
        xi = field_q.from_rational(F(rng.randint(-300, 300), rng.randint(1, 200)))
        rho, gam = reduce_mod(Z, s_q_23, xi)
        assert rho + gam == xi
        assert _in_fundamental_domain(Z, s_q_23, rho)
        r2, g2 = reduce_mod(Z, s_q_23, rho)
        assert r2 == rho and g2.is_zero()
    s5 = make_sconfig(field_qi, [5], place_indices={5: [0]})
    A = ideal_from_gens([field_qi.one() + field_qi.gen()])
    for _ in range(25):
        xi = field_qi.element([F(rng.randint(-40, 40), rng.randint(1, 30))
                               for _ in range(2)])
        rho, gam = reduce_mod(A, s5, xi)
        assert rho + gam == xi
        assert _in_fundamental_domain(A, s5, rho)
        r2, g2 = reduce_mod(A, s5, rho)
        assert r2 == rho and g2.is_zero()


def test_fundamental_domain_membership(field_q, s_q_2):
    Z = field_q.maximal_order()
    assert _in_fundamental_domain(Z, s_q_2, field_q.from_rational(F(1, 5)))
    assert not _in_fundamental_domain(Z, s_q_2, field_q.from_rational(F(1, 2)))
    assert not _in_fundamental_domain(Z, s_q_2, field_q.from_rational(F(7, 5)))
    # uniqueness: reduced representatives always pass, shifts never do
    rng = random.Random(11)
    for _ in range(30):
        xi = field_q.from_rational(F(rng.randint(-50, 50), rng.randint(1, 40)))
        rho, _ = reduce_mod(Z, s_q_2, xi)
        assert _in_fundamental_domain(Z, s_q_2, rho)
        assert not _in_fundamental_domain(Z, s_q_2, rho + field_q.one())


def _ref_shift_into_depths(ctx, xi, depths):
    """The earlier solver: gamma = g / t with t an S-smooth integer, and g
    in the a-part made extra-divisible at the sibling places (the places
    above a prime of S that are not in S)."""
    field = ctx.field
    sconfig = ctx.sconfig
    d = xi.denominator()
    s_primes = sorted({v.p for v in sconfig.finite_places})
    t = 1
    for p in s_primes:
        need = int_valuation(d, p)
        for v, depth in zip(sconfig.finite_places, depths):
            if v.p == p and depth > 0:
                need = max(need, -(-depth // v.e) + int_valuation(d, p))
        t *= p**need
    d_rest = d
    for p in s_primes:
        while d_rest % p == 0:
            d_rest //= p
    lattice_a = ctx.a_part
    for p in s_primes:
        vp_t = int_valuation(t, p)
        if vp_t == 0:
            continue
        for w in places_above(field, p):
            if any(w.p == v.p and w.gen_poly == v.gen_poly
                   for v in sconfig.finite_places):
                continue
            lattice_a = lattice_a * w.ideal_power(vp_t * w.e)
    d0 = lattice_a.den
    modulus = ctx.s_lattice(
        [max(depth + int_valuation(t * d0, v.p) * v.e, 0)
         for v, depth in zip(sconfig.finite_places, depths)], over_order=True)
    if modulus.den != 1:
        raise AssertionError("finite shift modulus is not integral")
    g = CongruenceSystem(lattice_a, d_rest * d0, modulus).solve(
        xi * (t * d_rest * d0))
    if g is None:
        raise SearchExhausted("finite shift system unsolvable (bug)")
    gamma = g / t
    diff = xi - gamma
    if not diff.is_zero() and any(valuation(diff, v) < depth for v, depth
                                  in zip(sconfig.finite_places, depths)):
        raise AssertionError("finite shift misses the requested depths")
    return gamma


def _ref_rho(ctx, xi):
    """reduce_mod's rho, its finite step taken by the earlier solver."""
    places = ctx.sconfig.finite_places
    rho = xi
    if any(valuation(xi, v) < 0 for v in places):
        rho = xi - _ref_shift_into_depths(ctx, xi, (0,) * len(places))
    for c, b in zip(ctx.a_part.coords_in_basis(rho), ctx.basis):
        rho = rho - b * floor(c)
    return rho


def _shift_cases():
    """(ideal, S, the sibling places) of the solver's reference test."""
    q, qi, r2 = (make_field(c) for c in ([-1, 1], [1, 0, 1], [-2, 0, 1]))
    return [(q.maximal_order(), make_sconfig(q, [2, 3]), []),
            (qi.maximal_order(), make_sconfig(qi, [5], place_indices={5: [0]}),
             places_above(qi, 5)[1:]),
            (r2.maximal_order(), make_sconfig(r2, [7]), []),
            (ideal_from_gens([qi.element([F(3, 2), 3])]),
             make_sconfig(qi, [2]), [])]


def test_shift_into_depths_matches_the_earlier_solver():
    # poles at S, at a sibling place and away from S, depths of both signs
    rng = random.Random(24)
    for a, sconfig, siblings in _shift_cases():
        ctx = torus_context(a, sconfig)
        field = ctx.field
        places = sconfig.finite_places
        s_primes = {v.p for v in places}
        other_primes = [q for q in (1, 11, 13) if q not in s_primes]
        for _ in range(6):
            den = rng.choice(other_primes)
            for p in s_primes:
                den *= p**rng.randint(0, 3)
            x = field.element([F(rng.randint(1, 60), den)]
                              + [F(rng.randint(-60, 60), den)
                                 for _ in range(field.degree - 1)])
            for w in siblings:
                x = x * w.uniformizer() ** -rng.randint(0, 2)
            for depths in itertools.product(range(-2, 4), repeat=len(places)):
                gamma = shift_into_depths(ctx, x, depths)
                assert gamma_in_s_ideal(ctx, gamma), (x, depths)
                diff = x - gamma
                assert diff.is_zero() or all(
                    valuation(diff, v) >= d for v, d in zip(places, depths))
                if min(depths) >= 0:
                    ref = _ref_shift_into_depths(ctx, x, depths)
                    assert ctx.s_lattice(depths).contains(gamma - ref)
            assert reduce_mod(a, sconfig, x)[0] == _ref_rho(ctx, x)


UNSOLVABLE = (
    "from fractions import Fraction\n"
    "from euclidmin import make_field, make_sconfig, reduce_mod\n"
    "from euclidmin.torus import CongruenceSystem\n"
    "CongruenceSystem.solve = lambda self, target: None\n"
    "field = make_field([-1, 1])\n"
    "half = field.from_rational(Fraction(1, 2))\n"
    "try:\n"
    "    reduce_mod(field.maximal_order(), make_sconfig(field, [2]), half)\n"
    "except AssertionError as exc:\n"
    "    raise SystemExit(0 if 'unsolvable' in str(exc) else 1)\n"
    "raise SystemExit(1)\n")


def test_unsolvable_shift_system_raises(monkeypatch):
    # the CRT always solves the system, so None can only be a defect
    field = make_field([-1, 1])
    sconfig = make_sconfig(field, [2])
    ctx = torus_context(field.maximal_order(), sconfig)
    monkeypatch.setattr(CongruenceSystem, "solve", lambda self, target: None)
    with pytest.raises(AssertionError, match="unsolvable"):
        shift_into_depths(ctx, field.from_rational(F(1, 2)), (0,))
    done = _fresh_python(UNSOLVABLE, "-O")
    assert done.returncode == 0, done.stderr.decode()


def test_torsion_reps(field_q, field_qi, s_q_2, s_qi_inf):
    Z = field_q.maximal_order()
    reps = torsion_reps(Z, 2, s_q_2)
    assert sorted(r.as_rational() for r in reps) == [0, F(1, 2)]
    assert torsion_reps(Z, 1, s_q_2)[0].is_zero()
    Oi = field_qi.maximal_order()
    reps = torsion_reps(Oi, 2, s_qi_inf)
    assert len(reps) == 4
    assert len({r.coords for r in reps}) == 4
    for m in (2, 3):
        assert len(torsion_reps(Oi, m, s_qi_inf)) == m ** 2


def test_orbit_examples(field_q, s_q_23):
    Z = field_q.maximal_order()
    orb = orbit(Z, s_q_23, field_q.from_rational(F(1, 5)))
    assert sorted(o.as_rational() for o in orb) == \
        [F(1, 5), F(2, 5), F(3, 5), F(4, 5)]
    assert len(orbit(Z, s_q_23, field_q.from_rational(F(1, 7)))) == 6
    zero_orb = orbit(Z, s_q_23, field_q.zero())
    assert len(zero_orb) == 1 and zero_orb[0].is_zero()


def test_orbit_size_matches_permutation_group(field_q, s_q_23):
    # independent computation: order of the permutation action on the
    # residue classes, divided by the stabilizer order
    Z = field_q.maximal_order()
    for q in (5, 7, 11):
        xi = field_q.from_rational(F(1, q))
        orb = orbit(Z, s_q_23, xi)
        perms = set()
        gens = [g % q for g in (2, 3, q - 1)]
        group = {1}
        frontier = [1]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = a * g % q
                    if b not in group:
                        group.add(b)
                        nxt.append(b)
            frontier = nxt
        stab = [a for a in group if a % q == 1]
        assert len(orb) == len(group) // len(stab)


def test_char_pair_examples(field_q, field_qi, s_q_inf, s_qi_inf):
    assert char_pair(field_q.one(), field_q.from_rational(F(1, 2)),
                     s_q_inf) == QmodZ(F(1, 2))
    i = field_qi.gen()
    assert char_pair(field_qi.from_rational(F(1, 2)), i, s_qi_inf).is_zero()
    assert char_pair(field_qi.from_rational(F(1, 2)),
                     field_qi.from_rational(F(1, 2)),
                     s_qi_inf) == QmodZ(F(1, 2))


def test_char_trivial_on_s_integers(field_q, s_q_2, field_qi):
    # with finite places the polar correction makes the character trivial
    # exactly on the S-integers
    assert char_pair(field_q.one(), field_q.from_rational(F(1, 4)),
                     s_q_2).is_zero()
    assert char_pair(field_q.one(), field_q.from_rational(F(3, 8)),
                     s_q_2).is_zero()
    assert char_pair(field_q.one(), field_q.from_rational(F(1, 3)),
                     s_q_2) == QmodZ(F(1, 3))
    s5 = make_sconfig(field_qi, [5], place_indices={5: [0]})
    pi = s5.finite_places[0].uniformizer()
    rng = random.Random(3)
    for k in range(3):
        scale = pi.inverse() ** k if k else field_qi.one()
        for _ in range(5):
            y = field_qi.element([rng.randint(-6, 6), rng.randint(-6, 6)])
            assert char_pair(field_qi.one(), y * scale, s5).is_zero()


# x^3-x-1: 5 = P1 P2 (f = 1, 2), 23 = P1^2 P2, 59 splits; x^4+x^3+x^2+x+1:
# 2 is inert, 5 totally ramified, 11 splits
TRACE_FIELDS = (([-1, -1, 0, 1], (5, 23, 59)), ([1, 1, 1, 1, 1], (2, 5, 11)))


def test_local_traces_sum_to_the_global_trace():
    # for x with a p-power denominator, Tr(x) in Z[1/p] is the sum of the
    # local traces at the places above p, so mod 1 it is their polar parts
    rng = random.Random(14)
    for poly, primes in TRACE_FIELDS:
        field = make_field(poly)
        for p in primes:
            places = places_above(field, p)
            for _ in range(40):
                den = p**rng.randint(0, 3)
                x = field.element([F(rng.randint(-40, 40), den)
                                   for _ in range(field.degree)])
                total = sum(local_trace_polar(x, v) for v in places)
                assert QmodZ(total) == QmodZ(x.trace()), (poly, p, x)


# (poly, split p, index of the place, a generator of its prime, a unit)
SPLIT_PLACES = (([-1, -1, 0, 1], 59, 0, [-3, -1, -2], [0, 1, 0]),
                ([1, 1, 1, 1, 1], 11, 0, [-3, -1, -2, -2], [1, 1, 0, 0]))


def test_char_trivial_outside_one_split_place():
    rng = random.Random(15)
    for poly, p, i, gen, unit in SPLIT_PLACES:
        field = make_field(poly)
        n = field.degree
        pi = field.element(gen)
        s = make_sconfig(field, [p], unit_gens=[field.element(unit), pi],
                         place_indices={p: [i]})
        assert valuation(pi, s.finite_places[0]) == 1
        for k in range(3):
            scale = pi.inverse() ** k if k else field.one()
            for _ in range(4):
                y, alpha = (field.element([rng.randint(-6, 6)
                                           for _ in range(n)])
                            for _ in range(2))
                assert char_pair(alpha, y * scale, s).is_zero(), (poly, k)
        # 1/p has poles at the n - 1 places above p outside S
        assert char_pair(field.one(), field.from_rational(F(1, p)), s) == \
            QmodZ(F(n - 1, p))


def test_char_biadditive(field_qi):
    s2 = make_sconfig(field_qi, [2])
    rng = random.Random(5)
    for _ in range(25):
        a, x, y = (field_qi.element([F(rng.randint(-9, 9), rng.randint(1, 4))
                                     for _ in range(2)]) for _ in range(3))
        assert char_pair(a, x + y, s2) == char_pair(a, x, s2) + char_pair(a, y, s2)


def test_inverse_different(field_q, field_qi, field_sqrt2):
    assert inverse_different(field_q) == field_q.maximal_order()
    di = inverse_different(field_qi)
    assert di == ideal_from_gens([field_qi.from_rational(F(1, 2))])
    assert ideal_norm(inverse_different(field_sqrt2)) == F(1, 8)


def test_s_trace_dual(field_qi, s_qi_inf):
    Oi = field_qi.maximal_order()
    assert s_trace_dual(Oi, s_qi_inf) == inverse_different(field_qi)
    two = ideal_from_gens([field_qi.from_rational(2)])
    assert s_trace_dual(two, s_qi_inf) == \
        ideal_from_gens([field_qi.from_rational(F(1, 4))])
    # prime-to-S convention strips the ramified 2-part entirely
    s2 = make_sconfig(field_qi, [2])
    assert s_trace_dual(Oi, s2) == Oi


def test_duality_pairing_vanishes(field_qi, field_sqrt2, s_qi_inf, s_sqrt2_inf):
    rng = random.Random(8)
    for field, sconfig in ((field_qi, s_qi_inf), (field_sqrt2, s_sqrt2_inf)):
        for _ in range(10):
            x = field.element([rng.randint(-5, 5) for _ in range(2)])
            if x.is_zero():
                continue
            a = ideal_from_gens([x, field.from_rational(rng.randint(1, 5))])
            ap = s_trace_dual(a, sconfig)
            assert a * ap == inverse_different(field)
            for al in ap.basis_elements():
                for ga in a.basis_elements():
                    assert char_pair(al, ga, sconfig).is_zero()


def test_qmodz_arithmetic():
    assert QmodZ(F(3, 4)) + QmodZ(F(1, 2)) == QmodZ(F(1, 4))
    assert QmodZ(F(-1, 3)) == QmodZ(F(2, 3))
    assert (QmodZ(F(1, 2)) - QmodZ(F(1, 2))).is_zero()
    assert QmodZ(5) == QmodZ(0)


def test_torus_context_is_kept_for_the_last_ideal_only(field_q):
    import json

    from euclidmin import covering_verify, m_exact
    from euclidmin.cli import certificate_to_json, witness_to_json
    from euclidmin.torus import torus_context

    sconfig = make_sconfig(field_q, [2, 3])
    Z = field_q.maximal_order()
    xi = field_q.from_rational(F(2, 5))

    def report():
        cert = covering_verify(Z, sconfig, F(21, 100))
        doc = {"cert": certificate_to_json(cert),
               "m": witness_to_json(xi, m_exact(Z, sconfig, xi))}
        return json.dumps(doc, sort_keys=True)

    first = report()
    ctx = torus_context(Z, sconfig)
    for k in range(2, 40):
        scaled = ideal_from_gens([field_q.from_rational(F(k, k + 1))])
        m_exact(scaled, sconfig, field_q.from_rational(F(1, 7)))
        assert list(sconfig.torus_contexts) == [(scaled.hnf, scaled.den)]
    assert torus_context(Z, sconfig) is not ctx     # replaced, then rebuilt
    assert torus_context(Z, sconfig) is torus_context(Z, sconfig)
    assert report() == first
