import random
from fractions import Fraction as F

import pytest

from euclidmin import (UnverifiedUnits, compute_M, decide_norm_euclidean,
                       ideal_from_gens, m_exact, make_sconfig, orbit, s_norm,
                       search_lower)
from euclidmin.minima import MinimumValue, witness_mismatch
from euclidmin.places import SConfig
from euclidmin.torus import torus_context


def rational_minimum_oracle(x: F, ps) -> F:
    """Residue-orbit oracle over Q: the minimum is the smallest distance to
    a multiple of q among the products of the numerator class with the
    subgroup generated by the S-primes and -1."""
    for p in ps:
        while x.denominator % p == 0:
            x *= p
    q = x.denominator
    if q == 1:
        return F(0)
    r = x.numerator % q
    group = {r}
    frontier = [r]
    while frontier:
        nxt = []
        for c in frontier:
            for mult in list(ps) + [q - 1]:
                c2 = c * mult % q
                if c2 not in group:
                    group.add(c2)
                    nxt.append(c2)
        frontier = nxt
    return F(min(min(c, q - c) for c in group), q)


def test_m_exact_examples(field_q, field_qi, s_q_inf, s_qi_inf, s_q_2, s_q_23):
    Z = field_q.maximal_order()
    mv = m_exact(Z, s_q_inf, field_q.from_rational(F(1, 2)))
    assert mv.value == F(1, 2)
    assert s_norm(field_q.from_rational(F(1, 2)) - mv.attaining_shift,
                  s_q_inf) == F(1, 2)
    half = (field_qi.one() + field_qi.gen()) * F(1, 2)
    assert m_exact(field_qi.maximal_order(), s_qi_inf, half).value == F(1, 2)
    assert m_exact(Z, s_q_2, field_q.from_rational(F(1, 3))).value == F(1, 3)
    assert m_exact(Z, s_q_23, field_q.from_rational(F(1, 5))).value == F(1, 5)
    assert m_exact(Z, s_q_23, field_q.from_rational(7)).value == 0


def test_m_exact_witness_sqrtm5(field_sqrtm5, s_sqrtm5_inf):
    xi = (field_sqrtm5.one() + field_sqrtm5.gen()) * F(1, 2)
    mv = m_exact(field_sqrtm5.maximal_order(), s_sqrtm5_inf, xi)
    assert mv.value == F(3, 2)
    A = ideal_from_gens([field_sqrtm5.from_rational(2),
                         field_sqrtm5.one() + field_sqrtm5.gen()])
    assert m_exact(A, s_sqrtm5_inf, xi).value == F(3, 4)


def test_m_exact_requires_verified(field_q):
    raw = SConfig(field_q, [])
    with pytest.raises(UnverifiedUnits):
        m_exact(field_q.maximal_order(), raw, field_q.from_rational(F(1, 2)))


def test_m_exact_oracle_random(field_q, s_q_inf, s_q_2, s_q_23):
    rng = random.Random(42)
    Z = field_q.maximal_order()
    for ps, sconfig in (([], s_q_inf), ([2], s_q_2), ([2, 3], s_q_23)):
        for _ in range(60):
            x = F(rng.randint(-60, 60), rng.randint(1, 60))
            got = m_exact(Z, sconfig, field_q.from_rational(x)).value
            assert got == rational_minimum_oracle(x, ps), (x, ps)


def test_m_exact_discreteness(field_q, s_q_23):
    Z = field_q.maximal_order()
    rng = random.Random(51)
    ctx = torus_context(Z, s_q_23)
    for _ in range(30):
        x = F(rng.randint(-60, 60), rng.randint(1, 40))
        xi = field_q.from_rational(x)
        mv = m_exact(Z, s_q_23, xi)
        from euclidmin.torus import reduce_mod
        rho, _ = reduce_mod(Z, s_q_23, xi)
        if rho.is_zero():
            continue
        d = rho.as_rational().denominator
        scale = mv.value * ctx.s_norm_a * s_norm(field_q.from_rational(d), s_q_23)
        assert scale.denominator == 1


def test_unit_invariance(field_sqrt2, s_sqrt2_inf, field_qi, s_qi_inf):
    rng = random.Random(9)
    u = s_sqrt2_inf.unit_gens[0]
    O2 = field_sqrt2.maximal_order()
    for _ in range(12):
        xi = field_sqrt2.element([F(rng.randint(-9, 9), rng.randint(1, 6))
                                  for _ in range(2)])
        assert m_exact(O2, s_sqrt2_inf, xi).value == \
            m_exact(O2, s_sqrt2_inf, u * xi).value
    tq = s_qi_inf.torsion[0]
    Oi = field_qi.maximal_order()
    for _ in range(12):
        xi = field_qi.element([F(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(2)])
        assert m_exact(Oi, s_qi_inf, xi).value == \
            m_exact(Oi, s_qi_inf, tq * xi).value


def test_class_invariance(field_qi, s_qi_inf):
    rng = random.Random(12)
    b = ideal_from_gens([field_qi.one() + field_qi.gen()])
    g = field_qi.element([2, 1])
    a = ideal_from_gens([x * g for x in b.basis_elements()])
    for _ in range(12):
        xi = field_qi.element([F(rng.randint(-9, 9), rng.randint(1, 4))
                               for _ in range(2)])
        assert m_exact(a, s_qi_inf, xi).value == \
            m_exact(b, s_qi_inf, xi / g).value


def test_orbit_shares_minimum(field_q, s_q_23):
    Z = field_q.maximal_order()
    for q in (5, 7):
        orb = orbit(Z, s_q_23, field_q.from_rational(F(1, q)))
        values = {m_exact(Z, s_q_23, o).value for o in orb}
        assert len(values) == 1


def test_search_lower(field_q, field_qi, s_q_inf, s_qi_inf, s_q_23):
    xi, mv, _ = search_lower(field_q.maximal_order(), s_q_inf, 4)
    assert (xi.as_rational(), mv.value) == (F(1, 2), F(1, 2))
    xi, mv, _ = search_lower(field_qi.maximal_order(), s_qi_inf, 2)
    assert mv.value == F(1, 2)
    xi, mv, _ = search_lower(field_q.maximal_order(), s_q_23, 5)
    assert (xi.as_rational(), mv.value) == (F(1, 5), F(1, 5))


def test_search_lower_closes_each_orbit_once(field_q, s_q_23, monkeypatch):
    import euclidmin.minima as minima
    import euclidmin.torus as torus

    closed = []
    closure = torus.orbit_with_units

    def counting_closure(a, sconfig, xi):
        closed.append(xi.coords)
        return closure(a, sconfig, xi)

    monkeypatch.setattr(torus, "orbit_with_units", counting_closure)
    monkeypatch.setattr(minima, "orbit_with_units", counting_closure)
    effort = {}
    xi, mv, size = search_lower(field_q.maximal_order(), s_q_23, 20,
                                effort=effort)
    assert (xi.as_rational(), mv.value, size) == (F(1, 5), F(1, 5), 4)
    # one closure per class searched; the class of 0 needs none
    assert 0 < len(closed) <= effort["m_exact_calls"]
    assert len(set(closed)) == len(closed)


def test_compute_m_reports(field_q, field_qi, s_q_inf, s_qi_inf):
    rep = compute_M(field_q.maximal_order(), s_q_inf, F(1, 100), budget=20000)
    assert rep.lower == F(1, 2) and rep.witness.as_rational() == F(1, 2)
    assert rep.upper == F(51, 100) and rep.certificate is not None
    assert rep.lower <= rep.upper
    rep = compute_M(field_qi.maximal_order(), s_qi_inf, F(1, 100), budget=20000)
    assert rep.lower == F(1, 2) and rep.upper == F(51, 100)


def test_compute_m_claims_no_exactness(field_qi):
    # the lower bound 1/9 is not the supremum: (1 + 2i)/5 has minimum 1/5
    s_qi_2 = make_sconfig(field_qi, [2])
    O = field_qi.maximal_order()
    rep = compute_M(O, s_qi_2, F(1, 10))
    assert rep.lower == F(1, 9) and rep.exact is False
    xi = field_qi.from_power_basis([F(1, 5), F(2, 5)])
    assert m_exact(O, s_qi_2, xi).value == F(1, 5) > rep.lower


def test_witness_replay_checks_the_shift(field_q, s_q_23, field_sqrtm5,
                                         s_sqrtm5_inf):
    O = field_sqrtm5.maximal_order()
    verdict = decide_norm_euclidean(O, s_sqrtm5_inf, budget=20000)
    mv = verdict.witness_minimum
    assert verdict.verdict == "not_euclidean"
    assert verdict.replays(O, s_sqrtm5_inf)
    seven = field_sqrtm5.from_rational(7)
    forged = verdict._replace(witness_minimum=MinimumValue(
        mv.value, seven, mv.search_box))
    assert not forged.replays(O, s_sqrtm5_inf)
    assert witness_mismatch(O, s_sqrtm5_inf, verdict.witness, mv.value,
                            seven) == \
        "recorded shift does not reproduce the value"
    # N_S(1/5 - (-1/5)) = 1/5 too, but -1/5 is not in Z[1/6]
    Z = field_q.maximal_order()
    fifth = field_q.from_rational(F(1, 5))
    assert witness_mismatch(Z, s_q_23, fifth, F(1, 5), field_q.zero()) is None
    assert witness_mismatch(Z, s_q_23, fifth, F(1, 5), -fifth) == \
        "recorded shift is not in the S-ideal"
    assert witness_mismatch(Z, s_q_23, fifth, F(1, 6), field_q.zero()) == \
        "witness value mismatch: recorded 1/6, recomputed 1/5"
    # the orbit of 1/5 is {1/5, 2/5, 3/5, 4/5}
    assert witness_mismatch(Z, s_q_23, fifth, F(1, 5), field_q.zero(),
                            4) is None
    assert witness_mismatch(Z, s_q_23, fifth, F(1, 5), field_q.zero(),
                            5) == \
        "witness_orbit_size must be the size of the witness's orbit"


def test_certificate_replay_failure_is_false(field_qi, s_qi_inf):
    O = field_qi.maximal_order()
    verdict = decide_norm_euclidean(O, s_qi_inf, budget=20000)
    assert verdict.verdict == "euclidean" and verdict.replays(O, s_qi_inf)
    cert = verdict.certificate
    first = cert.entries[0]
    edited = cert._replace(entries=(first._replace(bound=first.bound / 2),)
                           + cert.entries[1:])
    assert verdict._replace(certificate=edited).replays(O, s_qi_inf) is False


def test_decide_fixtures_small(field_qi, s_qi_inf, field_sqrtm5, s_sqrtm5_inf):
    verdict = decide_norm_euclidean(field_qi.maximal_order(), s_qi_inf,
                                    budget=20000)
    assert verdict.verdict == "euclidean"
    assert verdict.replays(field_qi.maximal_order(), s_qi_inf)
    verdict = decide_norm_euclidean(field_sqrtm5.maximal_order(),
                                    s_sqrtm5_inf, budget=20000)
    assert verdict.verdict == "not_euclidean"
    assert verdict.witness_minimum.value == F(3, 2)
    assert verdict.replays(field_sqrtm5.maximal_order(), s_sqrtm5_inf)


def test_decide_consistency_with_bounds(field_q, s_q_inf, field_qi, s_qi_inf):
    # bounds strictly below 1 must agree with a euclidean verdict
    for ideal, sconfig in ((field_q.maximal_order(), s_q_inf),
                           (field_qi.maximal_order(), s_qi_inf)):
        rep = compute_M(ideal, sconfig, F(1, 100), budget=20000)
        verdict = decide_norm_euclidean(ideal, sconfig, budget=20000)
        if rep.upper < 1:
            assert verdict.verdict == "euclidean"
        if rep.lower >= 1:
            assert verdict.verdict == "not_euclidean"


def test_minima_in_cubic_and_quartic_fields():
    from euclidmin import make_field, verify_s_unit_basis

    # cubic: the generator of x^3 - x - 1 is itself a unit of norm 1
    k3 = make_field([-1, -1, 0, 1])
    theta = k3.gen()
    s3 = verify_s_unit_basis(SConfig(k3, []), [theta])
    mv = m_exact(k3.maximal_order(), s3, theta * F(1, 2))
    assert mv.value == F(1, 8)
    assert m_exact(k3.maximal_order(), s3, theta * theta * F(1, 2)).value \
        == mv.value
    # quartic cyclotomic: 1 + zeta is a unit
    k5 = make_field([1, 1, 1, 1, 1])
    u = k5.one() + k5.gen()
    s5 = verify_s_unit_basis(SConfig(k5, []), [u])
    mv = m_exact(k5.maximal_order(), s5, k5.gen() * F(1, 2))
    assert mv.value == F(1, 16)
    assert m_exact(k5.maximal_order(), s5, u * k5.gen() * F(1, 2)).value \
        == mv.value


def test_decide_real_quadratic_with_finite_places(field_sqrt2):
    from euclidmin import make_sconfig

    s27 = make_sconfig(field_sqrt2, [7])
    verdict = decide_norm_euclidean(field_sqrt2.maximal_order(), s27,
                                    budget=40000)
    assert verdict.verdict == "euclidean"
    assert verdict.replays(field_sqrt2.maximal_order(), s27)


def test_decide_undecided_on_tiny_budget(field_sqrt2, s_sqrt2_inf):
    # Q(sqrt2) is norm-Euclidean with M = 1/2, but #S = 2 and a tiny budget
    # must surface undecided rather than a wrong verdict
    verdict = decide_norm_euclidean(field_sqrt2.maximal_order(), s_sqrt2_inf,
                                    budget=3)
    assert verdict.verdict == "undecided"
    assert sum(verdict.effort.values()) <= 3


def test_search_ladder_reduces_each_class_once(field_q, s_q_23,
                                              monkeypatch):
    import euclidmin.minima as minima

    enumerated, reduced = [], []
    reps_of, reduce, covering = (minima.torsion_reps, minima.reduce_mod,
                                 minima.covering_verify)

    def listing_reps(a, m, sconfig, primitive=False):
        reps = reps_of(a, m, sconfig, primitive)
        enumerated.append((m, reps))
        return reps

    def counting_reduce(a, sconfig, xi):
        reduced.append(xi)
        return reduce(a, sconfig, xi)

    def failing_covering(a, sconfig, t, budget, resume, effort):
        # one box from the start: every covering fails, so the ladder climbs
        return covering(a, sconfig, t, budget=1, effort=effort)

    monkeypatch.setattr(minima, "torsion_reps", listing_reps)
    monkeypatch.setattr(minima, "reduce_mod", counting_reduce)
    monkeypatch.setattr(minima, "covering_verify", failing_covering)
    verdict = decide_norm_euclidean(field_q.maximal_order(), s_q_23,
                                    budget=3000)
    assert verdict.verdict == "undecided"
    # every rung from 2 to 64 ran, each over the denominators it added
    assert [m for m, _ in enumerated] == list(range(1, 65))
    reps = {id(rep) for _, group in enumerated for rep in group}
    searched = [id(xi) for xi in reduced if id(xi) in reps]
    assert len(searched) == len(set(searched)) == len(reps)


def test_compute_m_effort_counts_every_box(field_q, s_q_23, monkeypatch):
    import euclidmin.minima as minima

    calls = {"boxes": 0, "m_exact": 0}
    certify, exact = minima._certify_box, minima.m_exact_attained

    def counting_certify(*args, **kwargs):
        calls["boxes"] += 1
        return certify(*args, **kwargs)

    def counting_m_exact(*args, **kwargs):
        calls["m_exact"] += 1
        return exact(*args, **kwargs)

    monkeypatch.setattr(minima, "_certify_box", counting_certify)
    monkeypatch.setattr(minima, "m_exact_attained", counting_m_exact)
    rep = compute_M(field_q.maximal_order(), s_q_23, F(1, 100), budget=3200)
    assert (rep.lower, rep.upper) == (F(1, 5), F(21, 100))
    assert rep.effort["covering_boxes"] == calls["boxes"]
    assert rep.effort["m_exact_calls"] == calls["m_exact"]


def test_decide_verdict_from_covering_witness(field_sqrtm5, s_sqrtm5_inf,
                                              monkeypatch):
    import euclidmin.minima as minima

    zero = field_sqrtm5.zero()
    blind = (zero, minima.MinimumValue(F(0), zero, {"trivial": True}), 1)
    monkeypatch.setattr(minima, "_search", lambda *args: blind)
    O = field_sqrtm5.maximal_order()
    verdict = decide_norm_euclidean(O, s_sqrtm5_inf, budget=3000)
    assert verdict.verdict == "not_euclidean"
    assert verdict.witness_minimum.value >= 1
    assert verdict.replays(O, s_sqrtm5_inf)


def _cubic_and_quartic():
    from euclidmin import make_field, verify_s_unit_basis

    k3 = make_field([-1, -1, 0, 1])
    s3 = verify_s_unit_basis(SConfig(k3, []), [k3.gen()])
    k5 = make_field([1, 1, 1, 1, 1])
    s5 = verify_s_unit_basis(SConfig(k5, []), [k5.one() + k5.gen()])
    return (k3, s3), (k5, s5)


def test_cubic_and_quartic_torsion():
    (k3, s3), (k5, s5) = _cubic_and_quartic()
    assert s3.torsion == (-k3.one(), 2)
    assert s5.torsion == (-k5.gen(), 10)


def test_cubic_minimum_with_a_large_unit_orbit():
    # x^3 - x - 1 with unit theta: the class of xi has 624 reduced classes
    # in its unit orbit, and each is searched by lattice enumeration
    (k3, s3), _ = _cubic_and_quartic()
    xi = k3.from_power_basis([F(1, 5), F(1, 3), F(1, 3)])
    mv = m_exact(k3.maximal_order(), s3, xi)
    assert mv.value == F(17, 3375)
    assert mv.attaining_shift.power_basis() == [
        392047237356249255, 493228998847602054, -595731867395338485]
    assert mv.search_box["branch"] == "box-enumeration"


def test_quartic_minimum_by_enumeration():
    _, (k5, s5) = _cubic_and_quartic()
    xi = k5.from_power_basis([F(c, 3) for c in (-8, 6, 12, -10)])
    mv = m_exact(k5.maximal_order(), s5, xi)
    assert mv.value == F(5, 81)
    assert mv.attaining_shift.power_basis() == [-2, 1, 5, -4]
    assert mv.search_box["branch"] == "box-enumeration"

