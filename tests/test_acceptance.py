"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` (or execute this file
directly) to see the per-criterion lines; every tolerance and time limit is
pinned here.
"""

import random
import time
from fractions import Fraction as F

import pytest

from euclidmin import (BinaryQuadraticForm, char_pair, compute_M,
                       covering_verify, form_from_ideal, ideal_from_gens,
                       ideal_norm, inverse_different, m_exact, m_form,
                       make_field, make_sconfig, orbit, places_above, s_norm,
                       s_trace_dual, valuation, verify_certificate)
from euclidmin.cli import RunConfig, emit_report, replay_report, run_command
from euclidmin.forms import _direct_window_min, m_form_reduced
from euclidmin.minima import box_contains_rational
from euclidmin.qmath import factorize
from euclidmin.torus import torus_context

LIMITS = {1: 10, 2: 30, 3: 60, 4: 300, 5: 600, 6: 120, 7: 10, 8: 30, 9: 60}


def _report(number, description, started):
    elapsed = time.time() - started
    limit = LIMITS[number]
    status = "PASS" if elapsed < limit else "FAIL(time)"
    print(f"[ACCEPTANCE {number}] {status} - {description} "
          f"({elapsed:.1f}s / limit {limit}s)")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def _random_element(field, rng, num=8, den=6):
    while True:
        x = field.element([F(rng.randint(-num, num), rng.randint(1, den))
                           for _ in range(field.degree)])
        if not x.is_zero():
            return x


def _support_places(field, x):
    nrm = abs(x.norm())
    primes = set(factorize(nrm.numerator)) | set(factorize(nrm.denominator))
    out = []
    for p in sorted(primes):
        out.extend(places_above(field, p))
    return out


def test_criterion_1_product_formula():
    started = time.time()
    rng = random.Random(1001)
    cases = [
        ([-1, 1], [[], [2], [2, 3]]),
        ([1, 0, 1], [[], [5], [2, 3]]),
        ([-2, 0, 1], [[], [7], [2]]),
        ([5, 0, 1], [[], [3], [3, 7]]),
    ]
    checked = 0
    for poly, s_variants in cases:
        field = make_field(poly)
        configs = [make_sconfig(field, primes) for primes in s_variants]
        for _ in range(100):
            x = _random_element(field, rng)
            y = _random_element(field, rng)
            sconfig = configs[checked % len(configs)]
            total = s_norm(x, sconfig)
            s_places = {(v.p, v.gen_poly) for v in sconfig.finite_places}
            for v in _support_places(field, x):
                if (v.p, v.gen_poly) not in s_places:
                    total *= F(v.residue_norm()) ** (-valuation(x, v))
            assert total == 1
            assert s_norm(x * y, sconfig) == s_norm(x, sconfig) * s_norm(y, sconfig)
            checked += 1
    _report(1, f"product formula and multiplicativity on {checked} elements",
            started)


def rational_minimum_oracle(x: F, ps) -> F:
    """Independent residue-orbit oracle for the minimum over Q.

    After unit-scaling the denominator q prime to S, attainable nonzero
    values are |u|/q over integers u whose class mod q lies in the subgroup
    generated by the S-primes and -1 times the numerator class, so the
    minimum is the smallest distance of that orbit to a multiple of q."""
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


def test_criterion_2_rational_oracle():
    started = time.time()
    field = make_field([-1, 1])
    Z = field.maximal_order()
    rng = random.Random(1002)
    total = 0
    for primes in ([], [2], [2, 3]):
        sconfig = make_sconfig(field, primes)
        for _ in range(167):
            x = F(rng.randint(-200, 200), rng.randint(1, 120))
            got = m_exact(Z, sconfig, field.from_rational(x)).value
            assert got == rational_minimum_oracle(x, primes), (x, primes)
            total += 1
    _report(2, f"m_exact matches the prime-to-S-part oracle on {total} rationals",
            started)


def test_criterion_3_invariances():
    started = time.time()
    rng = random.Random(1003)
    field_cases = [
        ([-1, 1], [2, 3]),
        ([1, 0, 1], []),
        ([-2, 0, 1], []),
        ([5, 0, 1], []),
    ]
    count = 0
    for poly, primes in field_cases:
        field = make_field(poly)
        sconfig = make_sconfig(field, primes)
        O = field.maximal_order()
        units = list(sconfig.unit_gens) + [sconfig.torsion[0]]
        for _ in range(50):
            xi = _random_element(field, rng, num=6, den=5)
            u = rng.choice(units)
            assert m_exact(O, sconfig, xi).value == \
                m_exact(O, sconfig, u * xi).value
            count += 1
        for _ in range(50):
            xi = _random_element(field, rng, num=6, den=4)
            gamma = _random_element(field, rng, num=4, den=1)
            b = ideal_from_gens([_random_element(field, rng, num=3, den=1),
                                 field.from_rational(rng.randint(1, 4))])
            a = ideal_from_gens([x * gamma for x in b.basis_elements()])
            assert m_exact(a, sconfig, xi).value == \
                m_exact(b, sconfig, xi / gamma).value
            count += 1
    _report(3, f"unit and ideal-class invariance on {count} cases", started)


def _decide_and_replay(tmp_path, name, raw, expected):
    cfg = RunConfig(raw)
    doc = run_command(cfg, "decide")
    assert doc["result"]["verdict"] == expected, name
    path = tmp_path / f"{name}.json"
    emit_report(dict(doc), str(path))
    ok, detail = replay_report(cfg, str(path))
    assert ok, (name, detail)
    return doc


def test_criterion_4_decision_outcomes(tmp_path):
    started = time.time()
    doc = _decide_and_replay(
        tmp_path, "z16",
        {"field": {"poly": [-1, 1]}, "S": {"primes": [2, 3]},
         "ideal": {"gens": [[1]]}}, "euclidean")
    doc = _decide_and_replay(
        tmp_path, "qi",
        {"field": {"poly": [1, 0, 1]}, "S": {"primes": []},
         "ideal": {"gens": [[1, 0]]}}, "euclidean")
    doc = _decide_and_replay(
        tmp_path, "m5",
        {"field": {"poly": [5, 0, 1]}, "S": {"primes": []},
         "ideal": {"gens": [[1, 0]]}}, "not_euclidean")
    assert doc["evidence"]["xi"] == ["1/2", "1/2"]  # (1 + sqrt(-5))/2
    assert doc["evidence"]["value"] == "3/2"
    doc = _decide_and_replay(
        tmp_path, "m5class",
        {"field": {"poly": [5, 0, 1]}, "S": {"primes": []},
         "ideal": {"gens": [[2, 0], [1, 1]]}}, "euclidean")
    _report(4, "all four decision fixtures with replayed evidence", started)


def test_criterion_5_desk_scale_two_sided():
    started = time.time()
    field = make_field([-1, 1])
    sconfig = make_sconfig(field, [2, 3])
    rep = compute_M(field.maximal_order(), sconfig, F(1, 100), budget=40000)
    assert rep.lower == F(1, 5)
    assert rep.witness.as_rational() == F(1, 5)
    assert rep.certificate is not None
    assert rep.certificate.threshold == F(21, 100)
    assert rep.upper == F(21, 100)
    assert rep.upper - rep.lower <= F(1, 100)
    ctx = torus_context(field.maximal_order(), sconfig)
    verify_certificate(ctx, rep.certificate)
    _report(5, "two-sided bounds 1/5 <= M <= 21/100 with certificate", started)


def test_criterion_6_covering_soundness():
    started = time.time()
    field = make_field([-1, 1])
    sconfig = make_sconfig(field, [2, 3])
    Z = field.maximal_order()
    ctx = torus_context(Z, sconfig)
    cert = covering_verify(Z, sconfig, F(21, 100), budget=60000)
    verify_certificate(ctx, cert)
    # monotonicity: the same certificate verifies at larger thresholds
    verify_certificate(ctx, cert, F(22, 100))
    verify_certificate(ctx, cert, F(1, 2))
    rng = random.Random(1006)
    for _ in range(1000):
        q = rng.choice([1, 5, 7, 11, 13, 25, 35, 49, 55, 77, 91])
        x = field.from_rational(F(rng.randrange(q), q))
        hits = [e for e in cert.entries if box_contains_rational(ctx, e.box, x)]
        assert len(hits) == 1
        gamma = field.element(hits[0].gamma_coords)
        assert s_norm(x - gamma, sconfig) / ctx.s_norm_a < F(21, 100)
    entries = list(cert.entries)
    e0 = entries[0]
    for tampered in (
        cert._replace(entries=tuple(
            [e0._replace(bound=e0.bound / 2)] + entries[1:])),
        cert._replace(entries=tuple(
            [e0._replace(gamma_coords=(e0.gamma_coords[0] + 1,))]
            + entries[1:])),
        cert._replace(entries=tuple(entries[1:])),
    ):
        with pytest.raises(AssertionError):
            verify_certificate(ctx, tampered)
    _report(6, "monotonicity, 1000 sample points, tampering rejected", started)


def test_criterion_7_orbit_structure():
    started = time.time()
    field = make_field([-1, 1])
    sconfig = make_sconfig(field, [2, 3])
    Z = field.maximal_order()
    orb5 = orbit(Z, sconfig, field.from_rational(F(1, 5)))
    orb7 = orbit(Z, sconfig, field.from_rational(F(1, 7)))
    assert len(orb5) == 4 and len(orb7) == 6
    for orb in (orb5, orb7):
        assert len({m_exact(Z, sconfig, o).value for o in orb}) == 1
    _report(7, "orbit sizes 4 and 6 with a single shared minimum each", started)


def test_criterion_8_duality():
    started = time.time()
    rng = random.Random(1008)
    for poly in ([1, 0, 1], [-2, 0, 1]):
        field = make_field(poly)
        sconfig = make_sconfig(field, [])
        dinv = inverse_different(field)
        count = 0
        while count < 20:
            x = field.element([rng.randint(-6, 6) for _ in range(2)])
            if x.is_zero():
                continue
            a = ideal_from_gens([x, field.from_rational(rng.randint(1, 6))])
            ap = s_trace_dual(a, sconfig)
            assert a * ap == dinv
            for al in ap.basis_elements():
                for ga in a.basis_elements():
                    assert char_pair(al, ga, sconfig).is_zero()
            count += 1
    _report(8, "a * dual(a) = inverse different and vanishing pairings", started)


def test_criterion_9_forms_dictionary():
    started = time.time()
    rng = random.Random(1009)
    # the three reference discriminants with their ideal presentations
    k8 = make_field([-2, 0, 1])
    km4 = make_field([1, 0, 1])
    km20 = make_field([5, 0, 1])
    a20 = ideal_from_gens([km20.from_rational(2), km20.one() + km20.gen()])
    setups = [
        (k8, k8.maximal_order(), (k8.one(), k8.gen())),
        (km4, km4.maximal_order(), (km4.one(), km4.gen())),
        (km20, a20, (km20.from_rational(2), km20.one() + km20.gen())),
    ]
    for field, ideal, basis in setups:
        f = form_from_ideal(ideal, basis)
        nrm = ideal_norm(ideal)
        for _ in range(100):
            x, y = rng.randint(-25, 25), rng.randint(-25, 25)
            assert f(x, y) * nrm == (basis[0] * x + basis[1] * y).norm()
    # minima agreement: definite forms against the exact ideal minimum,
    # the indefinite form against reduced-window direct enumeration
    for field, ideal, basis in setups[1:]:
        f = form_from_ideal(ideal, basis)
        sconfig = make_sconfig(field, [])
        for _ in range(100):
            p = (F(rng.randint(-9, 9), rng.randint(1, 8)),
                 F(rng.randint(-9, 9), rng.randint(1, 8)))
            xi = basis[0] * p[0] + basis[1] * p[1]
            assert m_form(f, p) == m_exact(ideal, sconfig, xi).value
    f8 = form_from_ideal(k8.maximal_order(), (k8.one(), k8.gen()))
    for _ in range(100):
        p = (F(rng.randint(-9, 9), rng.randint(1, 8)),
             F(rng.randint(-9, 9), rng.randint(1, 8)))
        value, red_point, red_shift = m_form_reduced(f8, p)
        assert _direct_window_min(f8, red_point, red_shift) == value
    assert m_form(BinaryQuadraticForm(1, 0, -2), (F(1, 2), 0)) == F(1, 4)
    _report(9, "norm identities and minima agreement for disc 8, -4, -20",
            started)


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        for fn, needs_tmp in (
            (test_criterion_1_product_formula, False),
            (test_criterion_2_rational_oracle, False),
            (test_criterion_3_invariances, False),
            (test_criterion_4_decision_outcomes, True),
            (test_criterion_5_desk_scale_two_sided, False),
            (test_criterion_6_covering_soundness, False),
            (test_criterion_7_orbit_structure, False),
            (test_criterion_8_duality, False),
            (test_criterion_9_forms_dictionary, False),
        ):
            try:
                fn(Path(tmp)) if needs_tmp else fn()
            except Exception as exc:  # pragma: no cover - direct runner only
                failures += 1
                name = fn.__name__
                print(f"[ACCEPTANCE {name}] FAIL - {exc}")
    sys.exit(1 if failures else 0)
