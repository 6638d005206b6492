import hashlib
import itertools
import random
from fractions import Fraction as F
from math import floor, gcd, lcm, prod

import pytest

from euclidmin import (NonMonic, ReduciblePolynomial, SConfig,
                       UnsupportedDegree, ZeroIdeal, elem_norm_trace, embed,
                       ideal_from_gens, ideal_invert, ideal_norm, make_field,
                       places_above, s_norm, valuation)
from euclidmin.covering import _check_disjoint
from euclidmin.fields import NumberField, ideal_dual, inverse_different
from euclidmin.hnf import _column_echelon, hnf_columns, xgcd
from euclidmin.torus import torus_context


def mat_det(m) -> F:
    """The exact-rational reference: Gaussian elimination on Fractions."""
    n = len(m)
    a = [[F(x) for x in row] for row in m]
    det = F(1)
    for i in range(n):
        p = next((r for r in range(i, n) if a[r][i] != 0), None)
        if p is None:
            return F(0)
        if p != i:
            a[i], a[p] = a[p], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            for c in range(i, n):
                a[r][c] -= f * a[i][c]
    return det


def test_make_field_basic(field_qi, field_q):
    assert field_qi.degree == 2
    assert field_qi.signature == (0, 1)
    assert field_qi.discriminant == -4
    assert field_q.degree == 1
    assert field_q.signature == (1, 0)
    assert field_q.discriminant == 1


def test_make_field_errors():
    with pytest.raises(ReduciblePolynomial):
        make_field([-4, 0, 1])
    with pytest.raises(ReduciblePolynomial):
        make_field([1, 2, 1])
    with pytest.raises(NonMonic):
        make_field([1, 2])
    with pytest.raises(UnsupportedDegree):
        make_field([1, 0, 0, 0, 0, 1])


def test_make_field_deterministic():
    a = make_field([1, 0, 1])
    b = make_field([1, 0, 1])
    assert a is b  # cached, hence trivially identical output


def test_maximal_order_saturation():
    # x^2 - 5: order Z[(1+sqrt5)/2], index 2, disc 5
    k5 = make_field([-5, 0, 1])
    assert k5.index == 2 and k5.discriminant == 5
    # x^2 + 3: Eisenstein order, disc -3
    k3 = make_field([3, 0, 1])
    assert k3.index == 2 and k3.discriminant == -3
    # cyclotomic quartic
    kz5 = make_field([1, 1, 1, 1, 1])
    assert kz5.discriminant == 125 and kz5.signature == (0, 2)
    # cubic x^3 - x - 1
    k3b = make_field([-1, -1, 0, 1])
    assert k3b.discriminant == -23 and k3b.signature == (1, 1)
    # high index: Dedekind's cubic (2 is a common index divisor) and pure
    # cubics and quartics, each saturated over several steps
    for coeffs, index, disc, basis in HIGH_INDEX:
        k = make_field(coeffs)
        assert (k.index, k.discriminant) == (index, disc)
        assert k.poly_disc == disc * index**2
        assert [[str(c) for c in row] for row in k.basis_pb] == basis


# (polynomial, index, discriminant, integral basis over the power basis)
HIGH_INDEX = (
    ([-8, -2, -1, 1], 2, -503,
     [["1", "0", "0"], ["0", "1", "0"], ["0", "1/2", "1/2"]]),
    ([16, 0, 0, 0, 1], 64, 256,
     [["1", "0", "0", "0"], ["0", "1/2", "0", "0"], ["0", "0", "1/4", "0"],
      ["0", "0", "0", "1/8"]]),
    ([-108, 0, 0, 1], 54, -108,
     [["1", "0", "0"], ["0", "1/3", "0"], ["0", "0", "1/18"]]),
    ([81, 0, 0, 0, 1], 729, 256,
     [["1", "0", "0", "0"], ["0", "1/3", "0", "0"], ["0", "0", "1/9", "0"],
      ["0", "0", "0", "1/27"]]),
    ([-1000, 0, 0, 0, 1], 1000, -256000,
     [["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1/10", "0"],
      ["0", "0", "0", "1/100"]]),
)


def test_field_construction_digest():
    # Every field of a fixed corpus (the irreducible monic polynomials with
    # coefficients in [-3, 3] of degree 2, [-2, 2] of degree 3 and
    # {-1, 0, 2} of degree 4, and the high-index ones above) hashes its
    # maximal order data, table, trace form and inverse different; the
    # digest was recorded with the Fraction implementation of saturation
    # and of the discriminant (a resultant), which this one replaces.
    polys = [list(c) + [1] for c in itertools.product(range(-3, 4), repeat=2)]
    polys += [list(c) + [1] for c in itertools.product(range(-2, 3), repeat=3)]
    polys += [list(c) + [1] for c in itertools.product((-1, 0, 2), repeat=4)]
    polys += [list(coeffs) for coeffs, *_ in HIGH_INDEX]
    digest = hashlib.sha256()
    count = 0
    for f in polys:
        try:
            k = NumberField(f)
        except ReduciblePolynomial:
            continue
        count += 1
        inv = inverse_different(k)
        digest.update(repr([
            list(k.coeffs), k.poly_disc,
            [[str(c) for c in r] for r in k.basis_pb], k.mult_table,
            [list(r) for r in k._ib_of_pb], k.index, k.discriminant,
            k.trace_gram, inv.hnf, inv.den]).encode())
    assert count == 148
    assert digest.hexdigest() == (
        "e3db1ecee7ad929a061b30faf9d4ec00331151613ff6244de33bae38eafd67a4")


def test_trace_gram_certifies_disc():
    for coeffs in ([-2, 0, 1], [5, 0, 1], [-5, 0, 1], [1, 1, 0, 1]):
        k = make_field(coeffs)
        assert int(mat_det([list(r) for r in k.trace_gram])) == k.discriminant


def test_norm_trace_examples(field_qi, field_q, field_sqrt2):
    i = field_qi.gen()
    assert elem_norm_trace(field_qi.one() + i) == (2, 2)
    assert elem_norm_trace(field_qi.one()) == (1, 2)
    assert elem_norm_trace(field_q.one()) == (1, 1)
    s2 = field_sqrt2.gen()
    assert elem_norm_trace(field_sqrt2.one() + s2) == (-1, 2)


def test_norm_trace_multiplicativity(field_qi, field_sqrt2):
    rng = random.Random(101)
    for field in (field_qi, field_sqrt2):
        for _ in range(50):
            x = field.element([F(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(2)])
            y = field.element([F(rng.randint(-9, 9), rng.randint(1, 5))
                               for _ in range(2)])
            assert (x * y).norm() == x.norm() * y.norm()
            assert (x + y).trace() == x.trace() + y.trace()


def test_embed_examples(field_qi, field_sqrt2):
    s2 = field_sqrt2.gen()
    box = embed(s2, F(1, 2**10))
    # positive root interval contains sqrt(2)
    hi_box = box.reals[1]
    assert hi_box.width <= F(1, 2**10)
    assert hi_box.lo**2 <= 2 <= hi_box.hi**2
    one = embed(field_qi.one(), F(1, 4))
    assert one.complexes[0].re.lo == one.complexes[0].re.hi == 1
    i_box = embed(field_qi.gen(), F(1, 4))
    assert i_box.complexes[0].re.contains(0)
    assert i_box.complexes[0].im.contains(1) or i_box.complexes[0].im.contains(-1)


def test_embed_nesting_and_norm_consistency(field_sqrt2, field_qi):
    rng = random.Random(7)
    for field in (field_sqrt2, field_qi):
        for _ in range(10):
            x = field.element([F(rng.randint(-6, 6), rng.randint(1, 4))
                               for _ in range(2)])
            coarse = embed(x, F(1, 2**6))
            fine = embed(x, F(1, 2**13))
            for a, b in zip(coarse.reals, fine.reals):
                assert a.lo <= b.lo and b.hi <= a.hi
            for a, b in zip(coarse.complexes, fine.complexes):
                assert a.re.lo <= b.re.lo and b.re.hi <= a.re.hi
            if not x.is_zero():
                assert fine.norm_interval().contains(abs(x.norm()))


def test_ideal_examples(field_qi, field_q):
    i = field_qi.gen()
    two = field_qi.from_rational(2)
    I = ideal_from_gens([two, field_qi.one() + i])
    assert ideal_norm(I) == 2
    assert I == ideal_from_gens([field_qi.one() + i])
    assert ideal_from_gens([field_qi.one()]) == field_qi.maximal_order()
    assert ideal_norm(ideal_from_gens([field_qi.from_rational(3)])) == 9
    half = ideal_from_gens([field_q.from_rational(F(1, 2))])
    assert half.hnf == ((1,),) and half.den == 2
    with pytest.raises(ZeroIdeal):
        ideal_from_gens([field_qi.zero()])


def test_ideal_norm_coset_oracle(field_qi):
    # |Z[i]/(1+i)| counted directly: lattice spanned by (1,1) and (-1,1)
    assert abs(1 * 1 - 1 * (-1)) == 2
    I = ideal_from_gens([field_qi.one() + field_qi.gen()])
    assert ideal_norm(I) == 2


def test_ideal_generator_order_independence(field_qi):
    rng = random.Random(13)
    for _ in range(30):
        gens = [field_qi.element([F(rng.randint(-5, 5), rng.randint(1, 3))
                                  for _ in range(2)]) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        i1 = ideal_from_gens(gens)
        rng.shuffle(gens)
        assert ideal_from_gens(gens) == i1


def test_ideal_norm_multiplicative(field_qi, field_sqrt2):
    rng = random.Random(17)
    for field in (field_qi, field_sqrt2):
        for _ in range(25):
            x = field.element([rng.randint(-9, 9) for _ in range(2)])
            y = field.element([rng.randint(-9, 9) for _ in range(2)])
            if x.is_zero() or y.is_zero():
                continue
            ix, iy = ideal_from_gens([x]), ideal_from_gens([y])
            assert ideal_norm(ix * iy) == ideal_norm(ix) * ideal_norm(iy)


def test_ideal_invert(field_qi, field_q):
    i = field_qi.gen()
    two = ideal_from_gens([field_qi.from_rational(2)])
    assert ideal_invert(two) == ideal_from_gens([field_qi.from_rational(F(1, 2))])
    opi = ideal_from_gens([field_qi.one() + i])
    inv = ideal_invert(opi)
    assert opi * inv == field_qi.maximal_order()
    assert inv == ideal_from_gens([(field_qi.one() - i) * F(1, 2)])
    O = field_qi.maximal_order()
    assert ideal_invert(O) == O


def test_ideal_invert_random_all_degrees():
    rng = random.Random(23)
    fields = [make_field([-1, 1]), make_field([1, 0, 1]),
              make_field([-1, -1, 0, 1]), make_field([1, 1, 1, 1, 1])]
    for field in fields:
        O = field.maximal_order()
        count = 0
        while count < 50:
            coords = [rng.randint(-4, 4) for _ in range(field.degree)]
            x = field.element(coords)
            if x.is_zero():
                continue
            I = ideal_from_gens([x, field.from_rational(rng.randint(1, 6))])
            assert I * ideal_invert(I) == O
            count += 1


# -- the lattice path against the routes it replaced ------------------------
# The references are the earlier HNF (its own xgcd elimination), products
# closed again under the integral basis, and the inverse as the kernel of
# x * I <= O; the HNF, inverse and dual are unique, so they must agree.

def _ref_hnf_columns(columns):
    """Upper-triangular column HNF by its own xgcd elimination, bottom row
    first, dropping columns that vanish on the rows still to do."""
    if not columns:
        raise ValueError("no columns")
    n = len(columns[0])
    cols = [list(c) for c in columns]
    hnf_cols = [None] * n
    for i in range(n - 1, -1, -1):
        live = [c for c in cols if any(c[k] for k in range(i + 1))]
        cols = []
        pivot = None
        for c in live:
            if c[i] == 0:
                cols.append(c)
            elif pivot is None:
                pivot = c
            else:
                g, x, y = xgcd(pivot[i], c[i])
                u, v = pivot[i] // g, c[i] // g
                cols.append([-v * pa + u * ca for pa, ca in zip(pivot, c)])
                pivot = [x * pa + y * ca for pa, ca in zip(pivot, c)]
        if pivot is None:
            raise ValueError("columns do not span a full-rank lattice")
        hnf_cols[i] = pivot if pivot[i] > 0 else [-x for x in pivot]
    for j in range(n):
        cj = hnf_cols[j]
        for i in range(j - 1, -1, -1):
            q = cj[i] // hnf_cols[i][i]
            for k in range(i + 1):
                cj[k] -= q * hnf_cols[i][k]
    return [[hnf_cols[j][i] for j in range(n)] for i in range(n)]


def _ref_ideal(cols, den):
    """(hnf, den) of the lattice of cols over den, in lowest terms."""
    h = _ref_hnf_columns(cols)
    g = gcd(den, *[c for row in h for c in row])
    return tuple(tuple(c // g for c in row) for row in h), den // g


def _ref_product(a, b):
    elems = [x * y * w for x in a.basis_elements()
             for y in b.basis_elements() for w in a.field.integral_basis]
    den = lcm(*[e.den for e in elems])
    return _ref_ideal([[c * (den // e.den) for c in e.nums] for e in elems],
                      den)


def _ref_invert(ideal):
    """x = v / m0 lies in the inverse when B_j v is in den * m0 * Z^n for
    every basis column j, B_j its multiplication matrix: the kernel of
    [B | den * m0 * I], from the unimodular transform of its echelon."""
    field = ideal.field
    n = field.degree
    m0 = prod(ideal.hnf[i][i] for i in range(n))
    rows = []
    for j in range(n):
        rows += field.int_mult_matrix([ideal.hnf[i][j] for i in range(n)])
    modulus = ideal.den * m0
    _, u, pivots = _column_echelon([
        list(row) + [modulus * (k == i) for k in range(len(rows))]
        for i, row in enumerate(rows)])
    rank = sum(p is not None for p in pivots)
    vs = [[line[j] for line in u[:n]] for j in range(rank, len(u))]
    return _ref_ideal([v for v in vs if any(v)], m0)


LATTICE_FIELDS = ([-1, 1], [1, 0, 1], [5, 0, 1], [-1, -1, 0, 1],
                  [1, 1, 1, 1, 1])


@pytest.mark.parametrize("coeffs", LATTICE_FIELDS)
def test_ideal_lattices_match_the_references(coeffs):
    field = make_field(coeffs)
    rng = random.Random(29)
    ideals = []
    while len(ideals) < 5:
        x = field.element([F(rng.randint(-5, 5), rng.randint(1, 3))
                           for _ in range(field.degree)])
        if not x.is_zero():
            ideals.append(ideal_from_gens([x, field.from_rational(
                rng.randint(1, 6))]))
    dinv = inverse_different(field)
    assert ideal_norm(dinv) == F(1, abs(field.discriminant))
    for a in ideals:
        inv = ideal_invert(a)
        assert (inv.hnf, inv.den) == _ref_invert(a)
        dual = ideal_dual(a)
        assert dual == inv * dinv
        assert all((x * y).trace().denominator == 1
                   for x in dual.basis_elements() for y in a.basis_elements())
        for b in ideals:
            ab = a * b
            assert (ab.hnf, ab.den) == _ref_product(a, b)


def test_hnf_columns_matches_the_reference():
    rng = random.Random(31)
    for n in range(1, 5):
        done = 0
        while done < 40:
            cols = [[rng.randint(-9, 9) for _ in range(n)]
                    for _ in range(rng.randint(n, 2 * n + 2))]
            try:
                ref = _ref_hnf_columns(cols)
            except ValueError:
                continue
            assert hnf_columns(cols) == ref
            done += 1
        if n > 1:
            # combinations of n - 1 columns span a lattice of rank < n
            base = [[rng.randint(-9, 9) for _ in range(n)]
                    for _ in range(n - 1)]
            coeffs = [[rng.randint(-3, 3) for _ in base] for _ in range(n + 2)]
            cols = [[sum(c * b[i] for c, b in zip(cs, base))
                     for i in range(n)] for cs in coeffs]
            with pytest.raises(ValueError):
                hnf_columns(cols)
    with pytest.raises(ValueError):
        hnf_columns([[1, 0], [3, 0]])
    with pytest.raises(ValueError):
        hnf_columns([])


# -- differential test of the integer element kernel ---------------------------
# Every reference below is written here, over Fractions and the power basis:
# products by polynomial multiplication mod f, norms by Gaussian elimination,
# valuations by membership of the numerator in P^k.

KERNEL_FIELDS = ([-1, 1], [1, 0, 1], [5, 0, 1], [-2, 0, 1], [-1, -1, 0, 1],
                 [1, 1, 1, 1, 1])
KERNEL_PRIMES = {1: (2, 3, 5), 2: (2, 3, 5, 7), 3: (5, 7, 23),
                 4: (2, 5, 11, 19)}


def _ref_mulmod(f, a, b):
    """Power-basis product of a and b modulo the monic polynomial f."""
    n = len(f) - 1
    prod = [F(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        for j in range(n + 1):
            prod[k - n + j] -= c * f[j]
    return prod[:n]


def _ref_det(rows):
    a = [[F(x) for x in row] for row in rows]
    n = len(a)
    det = F(1)
    for i in range(n):
        p = next((r for r in range(i, n) if a[r][i] != 0), None)
        if p is None:
            return F(0)
        if p != i:
            a[i], a[p] = a[p], a[i]
            det = -det
        det *= a[i][i]
        for r in range(i + 1, n):
            f = a[r][i] / a[i][i]
            a[r] = [x - f * y for x, y in zip(a[r], a[i])]
    return det


def _ref_norm(f, a):
    """det of multiplication by a on the power basis 1, theta, ..."""
    n = len(a)
    cols = [_ref_mulmod(f, a, [F(int(i == j)) for i in range(n)])
            for j in range(n)]
    return _ref_det([[cols[j][i] for j in range(n)] for i in range(n)])


def _ref_coords(ideal, coords):
    """Coordinates over the HNF basis by back-substitution, in Fractions."""
    h, n = ideal.hnf, len(ideal.hnf)
    t = [F(0)] * n
    for i in range(n - 1, -1, -1):
        s = coords[i] * ideal.den - sum(h[i][j] * t[j] for j in range(i + 1, n))
        t[i] = s / h[i][i]
    return t


def _ref_in_ideal(ideal, coords):
    return all(c.denominator == 1 for c in _ref_coords(ideal, coords))


def _ref_valuation(x, place):
    """Largest k with the numerator of x in P^k, less e * v_p(den)."""
    d = 1
    for c in x.coords:
        d = d * c.denominator // gcd(d, c.denominator)
    y = [c * d for c in x.coords]
    k = 0
    while _ref_in_ideal(place.ideal_power(k + 1), y):
        k += 1
    v_den = 0
    while d % place.p == 0:
        d //= place.p
        v_den += 1
    return k - place.e * v_den


def _kernel_samples(rng, field):
    """Power-basis coordinate vectors: zero, signed, large denominators, and
    multiples of powers of small primes (so valuations are not all zero)."""
    n = field.degree
    out = [[F(0)] * n, [F(-1)] + [F(0)] * (n - 1)]
    for _ in range(14):
        den = rng.choice([1, 2, 6, 35, 2**40 * 3**7, 10**12 + 39])
        out.append([F(rng.randint(-10**6, 10**6), den) for _ in range(n)])
    for p in KERNEL_PRIMES[n]:
        for _ in range(2):
            scale = F(p) ** rng.randint(-3, 4)
            out.append([F(rng.randint(-9, 9)) * scale for _ in range(n)])
    return out


@pytest.mark.parametrize("poly", KERNEL_FIELDS)
def test_element_kernel_against_references(poly):
    rng = random.Random(4201 + len(poly))
    k = make_field(poly)
    n = k.degree
    samples = _kernel_samples(rng, k)
    elems = [k.from_power_basis(pb) for pb in samples]
    places = [v for p in KERNEL_PRIMES[n] if k.index % p
              for v in places_above(k, p)]
    sconfig = SConfig(k, places)
    for pb, x in zip(samples, elems):
        assert x.power_basis() == pb
        norm = _ref_norm(poly, pb)
        assert x.norm() == norm
        if x.is_zero():
            continue
        assert x * x.inverse() == k.one()
        s_part = F(1)
        for v in places:
            w = _ref_valuation(x, v)
            assert valuation(x, v) == w
            s_part *= F(v.residue_norm()) ** -w
            for lattice in (v.ideal_power(1), v.ideal_power(-2)):
                assert lattice.contains(x) == _ref_in_ideal(lattice, x.coords)
                assert lattice.coords_in_basis(x) == _ref_coords(lattice,
                                                                 x.coords)
        assert s_norm(x, sconfig) == abs(norm) * s_part
    for _ in range(40):
        (pa, x), (pb, y) = rng.sample(list(zip(samples, elems)), 2)
        assert (x * y).power_basis() == _ref_mulmod(poly, pa, pb)
        assert (x + y).coords == tuple(a + b for a, b in zip(x.coords, y.coords))
        assert (x - y).coords == tuple(a - b for a, b in zip(x.coords, y.coords))
        q = F(rng.randint(-50, 50), rng.randint(1, 50))
        assert (x * q).coords == tuple(a * q for a in x.coords)


# -- lattice coordinates: point, reduce and the disjointness key --------------


def _ref_reduce(lattice, x):
    """x less the floor of each coordinate times its HNF basis element, one
    element at a time over Fractions: the reference for reduce."""
    shift = x.field.zero()
    for c, b in zip(lattice.coords_in_basis(x), lattice.basis_elements()):
        shift = shift + b * floor(c)
    return x - shift


def _random_element(rng, field, dens):
    return field.element([F(rng.randint(-10**4, 10**4), rng.choice(dens))
                          for _ in range(field.degree)])


@pytest.mark.parametrize("poly", KERNEL_FIELDS)
def test_point_and_reduce_against_floor_loop(poly):
    rng = random.Random(4401 + len(poly))
    k = make_field(poly)
    n = k.degree
    places = [v for p in KERNEL_PRIMES[n][:2] if k.index % p
              for v in places_above(k, p)]
    sconfig = SConfig(k, places)
    gens = [_random_element(rng, k, [1]) for _ in range(2)]
    ideals = [k.maximal_order(),
              ideal_from_gens([gens[0], k.from_rational(rng.randint(2, 30))]),
              ideal_from_gens([gens[1] * F(1, 6), k.from_rational(F(5, 3))])]
    lattices = []
    for ideal in ideals:
        ctx = torus_context(ideal, sconfig)
        lattices += [ideal, ctx.a_part]
        for _ in range(2):
            exps = [rng.randint(-1, 2) for _ in places]
            lattices.append(ctx.s_lattice(exps, over_order=True))
    dens = [1, 2, 3, 6, 35, 2**9 * 3**4, 10**6 + 3]
    for lattice in lattices:
        for _ in range(12):
            x = _random_element(rng, k, dens)
            r = lattice.reduce(x)
            assert r == _ref_reduce(lattice, x)
            assert lattice.contains(x - r)
            assert all(0 <= c < 1 for c in lattice.coords_in_basis(r))
            assert lattice.reduce(r) == r
            assert lattice.point(*lattice.int_coords(x)) == x
            z = [rng.randint(-50, 50) for _ in range(n)]
            m = rng.randint(1, 12)
            assert lattice.coords_in_basis(lattice.point(z, m)) == \
                [F(c, m) for c in z]


@pytest.mark.parametrize("poly", KERNEL_FIELDS)
def test_disjointness_key_is_the_class_modulo(poly):
    """Two overlapping boxes of equal depths are refused exactly when their
    integral centers differ by an element of the depths' modulus."""
    rng = random.Random(4501 + len(poly))
    k = make_field(poly)
    n = k.degree
    places = [v for p in KERNEL_PRIMES[n][:2] if k.index % p
              for v in places_above(k, p)]
    ctx = torus_context(k.maximal_order(), SConfig(k, places))
    lo, hi = (0,) * n, (1,) * n
    seen = set()
    for _ in range(6):
        exps = tuple([rng.randint(0, 2) for _ in places])
        modulus = ctx.s_lattice(exps, over_order=True)
        for _ in range(8):
            z1 = _random_element(rng, k, [1])
            z2 = _random_element(rng, k, [1])
            if rng.random() < 0.5:
                z2 = z1 + modulus.point([rng.randint(-9, 9) for _ in range(n)])
            congruent = modulus.contains(z1 - z2)
            seen.add(congruent)
            boxes = [(lo, hi, z1, exps), (lo, hi, z2, exps)]
            if congruent:
                with pytest.raises(AssertionError, match="overlapping"):
                    _check_disjoint(ctx, boxes)
            else:
                _check_disjoint(ctx, boxes)
    assert seen == {True, False}
