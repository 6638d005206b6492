import random
from fractions import Fraction as F

import pytest

from euclidmin import (BinaryQuadraticForm, DegenerateForm, NotABasis,
                       NotQuadratic, bsd_check, form_disc_primitive,
                       form_from_ideal, ideal_from_gens, ideal_norm, m_exact,
                       m_form)
from euclidmin.forms import _direct_window_min, m_form_reduced


def test_form_from_ideal_examples(field_sqrt2, field_qi, field_sqrtm5):
    f = form_from_ideal(field_sqrt2.maximal_order(),
                        (field_sqrt2.one(), field_sqrt2.gen()))
    assert (f.a, f.b, f.c) == (1, 0, -2)
    assert form_disc_primitive(f) == (8, True)
    fi = form_from_ideal(field_qi.maximal_order(),
                         (field_qi.one(), field_qi.gen()))
    assert (fi.a, fi.b, fi.c) == (1, 0, 1)
    assert form_disc_primitive(fi) == (-4, True)
    A = ideal_from_gens([field_sqrtm5.from_rational(2),
                         field_sqrtm5.one() + field_sqrtm5.gen()])
    f5 = form_from_ideal(A, (field_sqrtm5.from_rational(2),
                             field_sqrtm5.one() + field_sqrtm5.gen()))
    assert (f5.a, f5.b, f5.c) == (2, 2, 3)
    assert form_disc_primitive(f5) == (-20, True)


def test_form_errors(field_sqrt2, field_q):
    O, one, r2 = (field_sqrt2.maximal_order(), field_sqrt2.one(),
                  field_sqrt2.gen())
    with pytest.raises(NotABasis, match="linearly dependent"):
        form_from_ideal(O, (one, one * 2))
    span = "the pair does not span the ideal lattice"
    # (1, 2 sqrt 2) spans index 2 in Z[sqrt 2]; 1 is not in (2); (1/2, 2
    # sqrt 2) has determinant 1 over Z[sqrt 2] but 1/2 is not in it
    with pytest.raises(NotABasis, match=span):
        form_from_ideal(O, (one, r2 * 2))
    with pytest.raises(NotABasis, match=span):
        form_from_ideal(O, (one / 2, r2 * 2))
    with pytest.raises(NotABasis, match=span):
        form_from_ideal(ideal_from_gens([one * 2]), (one, r2))
    with pytest.raises(NotQuadratic):
        form_from_ideal(field_q.maximal_order(), (field_q.one(), field_q.one()))
    assert form_disc_primitive(BinaryQuadraticForm(2, 0, 4)) == (-32, False)


def test_form_disc_matches_field(field_qi, field_sqrt2, field_sqrtm5):
    rng = random.Random(19)
    for field in (field_qi, field_sqrt2, field_sqrtm5):
        count = 0
        while count < 20:
            x = field.element([rng.randint(-6, 6) for _ in range(2)])
            if x.is_zero():
                continue
            ideal = ideal_from_gens([x, field.from_rational(rng.randint(1, 9))])
            basis = ideal.basis_elements()
            f = form_from_ideal(ideal, (basis[0], basis[1]))
            assert f.disc == field.discriminant
            count += 1


def test_m_form_examples():
    f = BinaryQuadraticForm(1, 0, 1)
    assert m_form(f, (F(1, 2), F(1, 2))) == F(1, 2)
    assert m_form(f, (4, -9)) == 0
    g = BinaryQuadraticForm(1, 0, -2)
    assert m_form(g, (F(1, 2), 0)) == F(1, 4)
    with pytest.raises(DegenerateForm):
        m_form(BinaryQuadraticForm(1, 2, 1), (F(1, 2), 0))


def test_norm_identity(field_sqrt2, field_qi, field_sqrtm5):
    rng = random.Random(77)
    A = ideal_from_gens([field_sqrtm5.from_rational(2),
                         field_sqrtm5.one() + field_sqrtm5.gen()])
    cases = [(field_sqrt2.maximal_order(),
              (field_sqrt2.one(), field_sqrt2.gen())),
             (field_qi.maximal_order(), (field_qi.one(), field_qi.gen())),
             (A, (field_sqrtm5.from_rational(2),
                  field_sqrtm5.one() + field_sqrtm5.gen()))]
    for ideal, basis in cases:
        f = form_from_ideal(ideal, basis)
        nrm = ideal_norm(ideal)
        for _ in range(100):
            x, y = rng.randint(-30, 30), rng.randint(-30, 30)
            assert f(x, y) * nrm == (basis[0] * x + basis[1] * y).norm()


def test_translation_and_scaling():
    rng = random.Random(5)
    f = BinaryQuadraticForm(1, 0, 1)
    g = BinaryQuadraticForm(1, 0, -2)
    for _ in range(15):
        p = (F(rng.randint(-9, 9), rng.randint(1, 7)),
             F(rng.randint(-9, 9), rng.randint(1, 7)))
        dq = (rng.randint(-3, 3), rng.randint(-3, 3))
        for form in (f, g):
            assert m_form(form, p) == m_form(form, (p[0] + dq[0], p[1] + dq[1]))
        for lam in (2, -3):
            scaled = BinaryQuadraticForm(lam * f.a, lam * f.b, lam * f.c)
            assert m_form(scaled, p) == abs(lam) * m_form(f, p)


def test_minima_agreement_definite(field_qi, field_sqrtm5, s_qi_inf,
                                   s_sqrtm5_inf):
    rng = random.Random(31)
    for field, sconfig in ((field_qi, s_qi_inf), (field_sqrtm5, s_sqrtm5_inf)):
        ideal = field.maximal_order()
        basis = (field.one(), field.gen())
        f = form_from_ideal(ideal, basis)
        for _ in range(30):
            p = (F(rng.randint(-9, 9), rng.randint(1, 8)),
                 F(rng.randint(-9, 9), rng.randint(1, 8)))
            xi = basis[0] * p[0] + basis[1] * p[1]
            assert m_form(f, p) == m_exact(ideal, sconfig, xi).value


def test_minima_agreement_indefinite():
    rng = random.Random(37)
    f = BinaryQuadraticForm(1, 0, -2)
    for _ in range(25):
        p = (F(rng.randint(-9, 9), rng.randint(1, 8)),
             F(rng.randint(-9, 9), rng.randint(1, 8)))
        value, red_point, red_shift = m_form_reduced(f, p)
        assert _direct_window_min(f, red_point, red_shift) == value


def test_negative_leading_transport():
    rng = random.Random(41)
    f = BinaryQuadraticForm(1, 0, -2)
    f_neg = BinaryQuadraticForm(-1, 0, 2)
    f_both_neg = BinaryQuadraticForm(-1, 3, -1)  # disc 5, a, c < 0
    assert f_both_neg.disc == 5
    for _ in range(10):
        p = (F(rng.randint(-9, 9), rng.randint(1, 6)),
             F(rng.randint(-9, 9), rng.randint(1, 6)))
        assert m_form(f_neg, p) == m_form(f, p)
        value, red_point, red_shift = m_form_reduced(f_both_neg, p)
        assert _direct_window_min(f_both_neg, red_point, red_shift) == value


def test_bsd_check():
    f = BinaryQuadraticForm(1, 0, -2)
    rep = bsd_check(f, 8, 5)
    assert rep["lower_bound"] == F(1, 2)
    assert rep["all_equal"]
    assert len(rep["consistency"]) == 5
    rep0 = bsd_check(f, 4, 0)
    assert rep0["consistency"] == [] and rep0["lower_bound"] > 0
    with pytest.raises(DegenerateForm):
        bsd_check(BinaryQuadraticForm(1, 0, 1), 4, 2)
