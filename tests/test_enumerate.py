"""Certified lattice enumeration on bounded-size dyadic data.

Soundness: outward rounding encloses what it rounds, and
`lattice_points_in_box` returns every point that an exact-rational Cramer
solve at width 2^-24 (the reference below) finds possibly inside the box.
The integer Cramer solve gives exactly the ranges of the same solve on
rational intervals.
"""

import itertools
import random
from fractions import Fraction as F
from math import ceil, floor, isqrt

import pytest

import euclidmin.enumerate as enum
from euclidmin import SearchExhausted, make_field
from euclidmin.enumerate import lattice_points_in_box
from euclidmin.fields import GRID_BITS, embedding_rows, grid_row
from euclidmin.intervals import Iv
from euclidmin.qmath import (ROOT_BITS, ceil_scaled, dyadic_outward,
                             floor_scaled, nth_root_upper, sqrt_upper)

FIELDS = ([-1, 1], [1, 0, 1], [-2, 0, 1], [-1, -1, 0, 1], [1, 1, 1, 1, 1])


def interval_det(m):
    """The exact-rational reference: first-row cofactor expansion on Iv."""
    n = len(m)
    if n == 1:
        return m[0][0]
    out = Iv(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = m[0][j] * interval_det(minor)
        out = out - term if j % 2 else out + term
    return out


def _random_rational(rng, num=40, den=9):
    return F(rng.randint(-num, num), rng.randint(1, den))


def _random_element(rng, field, num=20, den=7):
    return field.element([_random_rational(rng, num, den)
                          for _ in range(field.degree)])


def _is_power_of_two(d):
    return d & (d - 1) == 0


def test_outward_rounding_encloses_with_dyadic_denominators():
    rng = random.Random(1)
    for _ in range(300):
        x = F(rng.randint(-10**30, 10**30), rng.randint(1, 10**25))
        y = x + F(rng.randint(0, 10**6), rng.randint(1, 10**20))
        for k in (-40, -3, 0, 7, 64):
            assert floor_scaled(x, k) <= x * F(2)**k < floor_scaled(x, k) + 1
            assert ceil_scaled(x, k) - 1 < x * F(2)**k <= ceil_scaled(x, k)
        for bits in (8, 64):
            lo, hi = dyadic_outward(x, y, bits)
            assert lo <= x and y <= hi
            assert _is_power_of_two(lo.denominator)
            assert _is_power_of_two(hi.denominator)
            for r in (lo, hi):
                # a bounded number of significant bits, and the sign kept
                m = r.numerator
                while m and m % 2 == 0:
                    m //= 2
                assert abs(m).bit_length() <= bits + 1
            assert (lo > 0) == (x > 0) and (hi < 0) == (y < 0)
    assert dyadic_outward(F(0), F(0)) == (0, 0)


def _ceil_root(m, n):
    """ceil(m^(1/n)) for an integer m >= 1 and n in (2, 4), by isqrt:
    floor(m^(1/4)) = isqrt(isqrt(m))."""
    r = isqrt(m - 1)
    return 1 + (r if n == 2 else isqrt(r))


def test_root_bounds_are_the_least_on_their_grid():
    # sqrt_upper(x) and nth_root_upper(x, n) are the least multiples of
    # 2^-ROOT_BITS at or above the root
    rng = random.Random(3)
    one = 1 << ROOT_BITS
    for _ in range(300):
        x = F(rng.randint(1, 10**rng.randint(1, 30)),
              rng.randint(1, 10**rng.randint(1, 30)))
        m = ceil(x * one**2)
        assert sqrt_upper(x) == nth_root_upper(x, 2) == F(_ceil_root(m, 2),
                                                           one)
        assert nth_root_upper(x, 4) == F(_ceil_root(ceil(x * one**4), 4), one)
        r = nth_root_upper(x, 3) * one
        assert r.denominator == 1 and (r - 1)**3 < x * one**3 <= r**3
        assert nth_root_upper(x, 1) == x
    for n in (1, 2, 3):
        assert nth_root_upper(F(0), n) == 0
        with pytest.raises(ValueError):
            nth_root_upper(F(-1, 3), n)
    assert sqrt_upper(F(0)) == 0 and sqrt_upper(F(9, 4)) == F(3, 2)
    with pytest.raises(ValueError):
        sqrt_upper(F(-1))


@pytest.mark.parametrize("coeffs", FIELDS)
def test_grid_rows_enclose_embeddings(coeffs):
    field = make_field(coeffs)
    scale = F(2)**GRID_BITS
    omega = field.basis_row_bounds(GRID_BITS)
    # the field rows hold finer embed enclosures of the integral basis
    for w, row in zip(field.integral_basis, omega):
        fine = embedding_rows(w, F(1, 2**(GRID_BITS + 4)))
        for (lo, hi), iv in zip(row, fine):
            assert lo / scale <= iv.lo and iv.hi <= hi / scale
            assert hi - lo <= 3
    # an element's rows hold the exact combination of the field rows, and
    # a target's grid interval holds the target
    rng = random.Random(2)
    for _ in range(40):
        lo = _random_rational(rng)
        t = Iv(lo, lo + _random_rational(rng, 40, 9) ** 2)
        grid_t = enum._grid_target(t, GRID_BITS)
        assert grid_t.lo / scale <= t.lo and t.hi <= grid_t.hi / scale
        elem = _random_element(rng, field)
        got = grid_row(elem, omega)
        for c, (lo, hi) in enumerate(got):
            exact = sum((Iv(row[c][0], row[c][1]) * x
                         for x, row in zip(elem.coords, omega)), Iv(0))
            assert Iv(lo, hi).contains(exact)
            assert type(lo) is int and type(hi) is int


def _reference_points(basis, offset, targets):
    """The exact-rational interval Cramer solve at width 2^-24, refined by
    16 while the determinant holds 0: all z in its integer ranges."""
    n = offset.field.degree
    width = F(1, 2**24)
    for _ in range(12):
        cols = [embedding_rows(b, width) for b in basis]
        a = [[cols[j][i] for j in range(n)] for i in range(n)]
        o = embedding_rows(offset, width)
        rhs = [targets[i] - o[i] for i in range(n)]
        det = interval_det(a)
        if not det.contains(0):
            break
        width /= 16
    else:
        raise AssertionError("reference solve never became regular")
    ranges = []
    for j in range(n):
        m = [[a[i][k] if k != j else rhs[i] for k in range(n)]
             for i in range(n)]
        r = interval_det(m) / det
        ranges.append(range(ceil(r.lo), floor(r.hi) + 1))
    return set(itertools.product(*ranges))


def _possibly_inside(basis_rows, offset_rows, targets, z):
    # an exact interval enclosure of the embedding of offset + sum z_j b_j
    for c, t in enumerate(targets):
        iv = offset_rows[c]
        for zj, row in zip(z, basis_rows):
            iv = iv + row[c] * zj
        if not iv.overlaps(t):
            return False
    return True


def _random_basis(rng, field):
    n = field.degree
    while True:
        m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if interval_det([[Iv(x) for x in row] for row in m]).lo != 0:
            break
    den = rng.randint(1, 3)
    return [field.element([F(x, den) for x in row]) for row in m]


def _coarse_rows(elem):
    # embedding rows at width 2^-40, widened to the grid 2^-48 so that the
    # endpoints stay small
    scale = 2**48
    return [Iv(F(floor(iv.lo * scale), scale), F(ceil(iv.hi * scale), scale))
            for iv in embedding_rows(elem, F(1, 2**40))]


def _reference_and_inside(basis, offset, targets):
    ref = _reference_points(basis, offset, targets)
    basis_rows = [_coarse_rows(b) for b in basis]
    offset_rows = _coarse_rows(offset)
    return ref, {z for z in ref
                 if _possibly_inside(basis_rows, offset_rows, targets, z)}


@pytest.mark.parametrize("coeffs", FIELDS)
def test_enumeration_holds_reference_points(coeffs):
    field = make_field(coeffs)
    rng = random.Random(sum(coeffs) + 17 * len(coeffs))
    found = 0
    for trial in range(4):
        basis = (list(field.integral_basis) if trial == 0
                 else _random_basis(rng, field))
        offset = _random_element(rng, field)
        targets = []
        for _ in range(field.degree):
            lo = _random_rational(rng, 12, 5)
            width = (F(rng.randint(1, 30), rng.randint(2, 6))
                     if field.degree <= 2 else F(rng.randint(2, 8), 4))
            targets.append(Iv(lo, lo + width))
        got = list(lattice_points_in_box(basis, offset, targets))
        assert len(got) == len(set(got))
        ref, inside = _reference_and_inside(basis, offset, targets)
        assert inside <= set(got)
        # the bounded grid is no looser than the reference here
        assert len(got) <= len(ref)
        found += len(inside)
    assert found > 0


def _rational_cramer(a, b):
    """Integer ranges of Cramer's rule on the same data as rational Iv."""
    n = len(a)
    iv = [[Iv(*e) for e in row] for row in a]
    det = interval_det(iv)
    out = []
    for j in range(n):
        m = [[iv[i][k] if k != j else Iv(*b[i]) for k in range(n)]
             for i in range(n)]
        r = interval_det(m) / det
        out.append((ceil(r.lo), floor(r.hi)))
    return out


def _pair(rng, mag):
    x = rng.randint(-mag, mag)
    return x, x + rng.choice((0, 0, 1, rng.randint(0, mag)))


def test_integer_solve_matches_rational_cramer():
    rng = random.Random(20)
    signs = set()
    divisible = 0
    for trial in range(1200):
        n = 1 + trial % 4
        mag = rng.choice((3, 40, 2**20))
        a = [[_pair(rng, mag) for _ in range(n)] for _ in range(n)]
        b = [_pair(rng, mag * n) for _ in range(n)]
        det = interval_det([[Iv(*e) for e in row] for row in a])
        if det.contains(0):
            with pytest.raises(ZeroDivisionError):
                enum._interval_solve(a, b)
            signs.add(0)
            continue
        signs.add(1 if det.lo > 0 else -1)
        got = enum._interval_solve(a, b)
        assert got == _rational_cramer(a, b)
        for j in range(n):
            m = [[a[i][k] if k != j else b[i] for k in range(n)]
                 for i in range(n)]
            num = interval_det([[Iv(*e) for e in row] for row in m])
            divisible += any(x % d == 0 for x in (num.lo, num.hi)
                             for d in (det.lo, det.hi))
    assert signs == {-1, 0, 1}
    assert divisible > 50


def test_integer_solve_exact_quotients():
    # det(A) = [2, 3]: both endpoints of each numerator divisible by an
    # endpoint of the determinant, on either sign of A
    for s in (1, -1):
        a = [[(2, 3) if s > 0 else (-3, -2)]]
        for b, want in (((6, 6), (2, 3)), ((-6, 6), (-3, 3)),
                        ((4, 9), (2, 4)), ((-9, -4), (-4, -2))):
            got = enum._interval_solve(a, [b])
            if s < 0:
                want = (-want[1], -want[0])
            assert got == [want] == _rational_cramer(a, [b])
    with pytest.raises(ZeroDivisionError):
        enum._interval_solve([[(0, 1), (0, 0)], [(0, 0), (1, 1)]],
                             [(1, 1), (1, 1)])


def test_singular_grid_is_retried(monkeypatch):
    # b1 = u^60 and b2 = u^60 + 1 with u = 1 + sqrt 2: the determinant of
    # their embeddings is ~u^60, against entries ~u^60 ~ 2^76, so on the
    # first grid its enclosure holds 0 and the solve must be retried
    field = make_field([-2, 0, 1])
    u = (field.one() + field.gen()) ** 60
    basis = [u, u + field.one()]
    offset = field.element([F(1, 3), F(-2, 5)])
    targets = [Iv(-5, 7), Iv(F(-9, 2), 3)]
    outcomes = []
    solve = enum._interval_solve

    def spy(a, rhs):
        try:
            out = solve(a, rhs)
        except ZeroDivisionError:
            outcomes.append(True)
            raise
        outcomes.append(False)
        return out

    monkeypatch.setattr(enum, "_interval_solve", spy)
    got = set(lattice_points_in_box(basis, offset, targets))
    assert outcomes == [True, False]
    inside = _reference_and_inside(basis, offset, targets)[1]
    assert inside and inside <= got


def test_singular_basis_exhausts():
    field = make_field([-2, 0, 1])
    one = field.one()
    with pytest.raises(SearchExhausted):
        list(lattice_points_in_box([one, one], field.zero(),
                                   [Iv(-1, 1), Iv(-1, 1)]))
