"""Number fields of degree <= 4 with exact element and ideal arithmetic.

A field is built from a monic irreducible integer polynomial. An order is
held as the upper-triangular column HNF of its basis over one denominator
on the power basis, and its multiplication table is computed on integers:
products of the numerators reduced modulo the polynomial, then integer
back-substitution on the HNF. The maximal order is found by radical
saturation at every prime whose square divides the polynomial
discriminant, on integer coordinates through that table, and its
correctness is certified afterwards: the table over the integral basis
must be integral and the trace-pairing Gram determinant must equal the
field discriminant. The polynomial discriminant is the Gram determinant of
the trace form of Z[theta], from the same table.

An element is a tuple of integer numerators over one positive denominator
(its coordinates over the integral basis, in lowest terms), so all
arithmetic is exact and runs on integers: products contract the integer
multiplication table, sums work over the common denominator, norms are
Bareiss determinants of the integer multiplication matrix, and ideal
membership reads the integer coordinates over the HNF. Ideal products are
the HNF of the basis products; one trace dual gives the inverse different
and inverses. `coords` gives the same coordinates as Fractions.
Archimedean data lives in certified interval boxes only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from typing import NamedTuple

from .errors import PrecisionUnreachable, UnsupportedDegree, ZeroIdeal
from .hnf import fp_kernel, hnf_columns, int_det, int_solve, mat_vec
from .intervals import Iv
from .polynomials import (certify_irreducible, count_real_roots, deg,
                          poly_mul, root_bound)
from .qmath import ceil_scaled, factorize, floor_scaled
from .roots import RootEnclosures, eval_interval

# binary digits of the grid on which lattice enumeration starts and the
# covering's bound screen works (basis_row_bounds, grid_row)
GRID_BITS = 64


def int_mul(table, a, b) -> tuple:
    """Coordinates of the product of two integral elements, given by integer
    coordinates over a basis with multiplication table `table`."""
    out = [0] * len(table)
    for x, row in zip(a, table):
        if x:
            for y, entry in zip(b, row):
                if y:
                    xy = x * y
                    for k, t in enumerate(entry):
                        out[k] += xy * t
    return tuple(out)


def _back_solve(h, v, d) -> list[int]:
    """The integer c with h c = v / d, for an upper-triangular integer h;
    raises when c is not integral."""
    n = len(h)
    c = [0] * n
    for i in range(n - 1, -1, -1):
        q, rem = divmod(v[i] - d * sum([h[i][j] * c[j]
                                        for j in range(i + 1, n)]),
                        d * h[i][i])
        if rem:
            raise AssertionError("coordinates are not integral")
        c[i] = q
    return c


def _order_table(f, h, den) -> tuple:
    """Integer multiplication table of the order whose basis is the columns
    of h over den on the power basis of the monic f: entry [i][j] holds the
    coordinates of omega_i * omega_j over that basis.

    The numerators multiply on integers and reduce modulo f, which is
    monic, so (h_i * h_j mod f) / den^2 is the product in the power basis;
    back-substitution on h raises when the lattice is not a ring.
    """
    n = len(h)
    cols = [[h[i][j] for i in range(n)] for j in range(n)]
    table = []
    for a in cols:
        row = []
        for b in cols:
            pb = poly_mul(a, b)
            for k in range(len(pb) - 1, n - 1, -1):
                c = pb[k]
                for i in range(n):
                    pb[k - n + i] -= c * f[i]
            row.append(tuple(_back_solve(h, pb[:n] + [0] * (n - len(pb)),
                                         den)))
        table.append(tuple(row))
    return tuple(table)


def _trace_form(table) -> tuple:
    """Traces of the basis elements and the Gram matrix of the trace form,
    both from the integer multiplication table."""
    n = len(table)
    traces = tuple(sum(table[i][k][k] for k in range(n)) for i in range(n))
    gram = tuple(tuple(sum([x * t for x, t in zip(table[i][j], traces)])
                       for j in range(n)) for i in range(n))
    return traces, gram


class NumberField:
    """Immutable number field; constructed through make_field."""

    def __init__(self, coeffs: list[int]):
        certify_irreducible(list(coeffs))
        self.coeffs = tuple(int(c) for c in coeffs)
        self.degree = n = deg(coeffs)
        f = list(self.coeffs)
        bound = root_bound(f)
        r1 = (1 if n == 1 else count_real_roots(f, -bound, bound))
        self.signature = (r1, (n - r1) // 2)
        # disc(f) is the Gram determinant of the trace form of Z[theta]
        power = [[int(i == j) for j in range(n)] for i in range(n)]
        self.poly_disc = int_det(_trace_form(_order_table(f, power, 1))[1])
        if self.poly_disc == 0:
            raise AssertionError("polynomial discriminant is zero")
        h, den = _maximal_order(f, self.poly_disc)
        # basis rows over the power basis, as integers over one denominator
        self._pb_den = den
        self._pb_num = [[h[i][j] for i in range(n)] for j in range(n)]
        self.basis_pb = tuple(tuple(Fraction(x, den) for x in row)
                              for row in self._pb_num)
        # [O : Z[theta]]
        self.index = den**n // prod(h[i][i] for i in range(n))
        self.discriminant = self.poly_disc // (self.index**2)
        # power-basis to integral-basis coordinates: column k holds theta^k,
        # integral as Z[theta] <= O
        cols = [_back_solve(h, [den * x for x in row], 1) for row in power]
        self._ib_of_pb = [[c[i] for c in cols] for i in range(n)]
        # integer multiplication table over the integral basis
        self.mult_table = _order_table(f, h, den)
        # trace of omega_i * omega_j certifies the discriminant
        self._traces, self.trace_gram = _trace_form(self.mult_table)
        if int_det(self.trace_gram) != self.discriminant:
            raise AssertionError(
                "trace Gram determinant does not certify the discriminant")
        self.integral_basis = tuple(
            FieldElement(self, tuple(int(i == j) for j in range(n)), 1)
            for i in range(n))
        self._roots: RootEnclosures | None = None
        self._basis_rows: dict = {}   # bits -> basis_row_bounds(bits)
        self.places: dict = {}        # p -> its places, see places_above

    # -- the integer kernel ----------------------------------------------------
    # Integral elements given by integer coordinates over the integral basis;
    # their product is int_mul(field.mult_table, a, b).

    def int_mult_matrix(self, a) -> list[list[int]]:
        """Matrix of multiplication by an integral element (column j is the
        product with omega_j)."""
        n = self.degree
        table = self.mult_table
        return [[sum([a[i] * table[i][j][k] for i in range(n)])
                 for j in range(n)] for k in range(n)]

    def _int_trace(self, a) -> int:
        return sum([x * t for x, t in zip(a, self._traces)])

    # -- public ----------------------------------------------------------------

    def element(self, coords) -> "FieldElement":
        coords = [c if type(c) is Fraction else Fraction(c) for c in coords]
        if len(coords) != self.degree:
            raise ValueError("coordinate length mismatch")
        den = lcm(*[c.denominator for c in coords])
        return FieldElement(self, tuple(c.numerator * (den // c.denominator)
                                        for c in coords), den)

    def zero(self):
        return FieldElement(self, (0,) * self.degree, 1)

    def one(self):
        return FieldElement(self, (1,) + (0,) * (self.degree - 1), 1)

    def gen(self) -> "FieldElement":
        """The root of the defining polynomial as a field element."""
        pb = [Fraction(0)] * self.degree
        if self.degree == 1:
            return self.element([Fraction(-self.coeffs[0])])
        pb[1] = Fraction(1)
        return self.from_power_basis(pb)

    def from_power_basis(self, pb_coords) -> "FieldElement":
        pb = [Fraction(x) for x in pb_coords]
        den = lcm(*[c.denominator for c in pb])
        nums = [c.numerator * (den // c.denominator) for c in pb]
        return FieldElement(self, tuple(mat_vec(self._ib_of_pb, nums)), den)

    def from_rational(self, q) -> "FieldElement":
        q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1),
                            q.denominator)

    def roots(self) -> RootEnclosures:
        if self._roots is None:
            self._roots = RootEnclosures(list(self.coeffs))
        return self._roots

    def basis_row_bounds(self, bits: int) -> tuple:
        """Integer enclosures of the integral-basis embeddings on the grid
        2^-bits, computed once per field and grid.

        Entry [k][c] is a pair (lo, hi) with lo / 2^bits <= coordinate c of
        the embedding of the k-th integral basis element <= hi / 2^bits;
        the coordinates are the real places, then (re, im) per complex
        place. The embed enclosures at width 2^-bits are rounded outward to
        the grid, so each pair spans at most three grid steps.
        """
        rows = self._basis_rows.get(bits)
        if rows is None:
            rows = self._basis_rows[bits] = tuple([
                tuple([(floor_scaled(iv.lo, bits), ceil_scaled(iv.hi, bits))
                       for iv in embedding_rows(w, Fraction(1, 2**bits))])
                for w in self.integral_basis])
        return rows

    def maximal_order(self) -> "FractionalIdeal":
        n = self.degree
        return FractionalIdeal(self, [[1 if i == j else 0 for j in range(n)]
                                      for i in range(n)], 1)

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"NumberField({list(self.coeffs)})"


def grid_row(elem: "FieldElement", omega) -> list[tuple[int, int]]:
    """Integer enclosures (lo, hi) on the grid of omega =
    basis_row_bounds(bits) of elem's real coordinates: the exact
    combination sum nums_k * omega_k / den, rounded outward."""
    den = elem.den
    out = []
    for c in range(len(omega)):
        lo = hi = 0
        for a, row in zip(elem.nums, omega):
            if a > 0:
                lo += a * row[c][0]
                hi += a * row[c][1]
            elif a:
                lo += a * row[c][1]
                hi += a * row[c][0]
        out.append((lo // den, -(-hi // den)))
    return out


@lru_cache(maxsize=64)
def _make_field_cached(coeffs: tuple) -> NumberField:
    return NumberField(list(coeffs))


def make_field(coeffs) -> NumberField:
    """Number field defined by a monic integer polynomial, ascending coeffs."""
    if not coeffs:
        raise UnsupportedDegree("empty coefficient list")
    return _make_field_cached(tuple(int(c) for c in coeffs))


def _maximal_order(f, poly_disc) -> tuple[list[list[int]], int]:
    """The maximal order as (h, den): its basis is the columns of the
    upper-triangular HNF h over den on the power basis, den least.

    Radical saturation (Cohen, GTM 138, sec. 6.1): at each p with
    p^2 | disc(f), repeatedly replace the order O by the multiplier ring of
    its p-radical until the index at p is stable. Primes whose square does
    not divide disc(f) are already maximal.
    """
    n = deg(f)
    order = [[int(i == j) for j in range(n)] for i in range(n)], 1
    for p, e in sorted(factorize(poly_disc).items()):
        if e < 2:
            continue
        while (enlarged := _enlarge_at_p(f, *order, p)) is not None:
            order = enlarged
    return order


def _enlarge_at_p(f, h, den, p):
    """One multiplier-ring step at p on the order (h, den), on integer
    coordinates over its basis; None when the order is p-maximal."""
    n = len(h)
    table = _order_table(f, h, den)
    unit = [[int(i == j) for j in range(n)] for i in range(n)]
    pm = 1
    while pm < n:
        pm *= p
    # Frobenius-power matrix on O/pO; 1 is the first basis element
    frob_cols = []
    for i in range(n):
        acc, base, e = unit[0], unit[i], pm
        while e:
            if e & 1:
                acc = [x % p for x in int_mul(table, acc, base)]
            base = [x % p for x in int_mul(table, base, base)]
            e >>= 1
        frob_cols.append(acc)
    frob_rows = [[frob_cols[j][i] for j in range(n)] for i in range(n)]
    # radical lattice in O-coords: kernel lifts plus p*O
    rad = hnf_columns(fp_kernel(frob_rows, p) + [[p * x for x in row]
                                                 for row in unit])
    # y in O with y * rad <= p * rad, as a kernel over F_p
    rows = []
    for j in range(n):
        rj = [rad[i][j] for i in range(n)]
        images = [_back_solve(rad, int_mul(table, ei, rj), 1) for ei in unit]
        for k in range(n):
            rows.append([images[i][k] % p for i in range(n)])
    m = hnf_columns(fp_kernel(rows, p) + [[p * x for x in row]
                                          for row in unit])
    if prod(m[i][i] for i in range(n)) == p**n:  # M = pO, no growth
        return None
    # O' = (1/p) M: its power-basis numerators are h M over p * den
    hm = [[sum([h[i][k] * m[k][j] for k in range(n)]) for i in range(n)]
          for j in range(n)]
    h = hnf_columns(hm)
    g = gcd(p * den, *[x for row in h for x in row])
    return [[x // g for x in row] for row in h], p * den // g


class FieldElement:
    """Element of a number field: integer numerators over one denominator.

    The coordinates over the integral basis are nums[i] / den with den > 0
    and gcd(den, *nums) = 1, so equal elements have equal representations.
    coords is the same vector as Fractions.
    """

    __slots__ = ("field", "nums", "den")

    def __init__(self, field: NumberField, nums: tuple, den: int):
        g = gcd(den, *nums)
        if g != 1:
            nums = tuple([a // g for a in nums])
            den //= g
        self.field = field
        self.nums = nums
        self.den = den

    @property
    def coords(self) -> tuple:
        den = self.den
        return tuple([Fraction(a, den) for a in self.nums])

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"

    def __eq__(self, other):
        return (isinstance(other, FieldElement) and self.field == other.field
                and self.nums == other.nums and self.den == other.den)

    def __hash__(self):
        return hash((self.nums, self.den))

    def is_zero(self) -> bool:
        return not any(self.nums)

    def __add__(self, other):
        # over the common denominator lcm(den, other.den) = den * ma
        g = gcd(self.den, other.den)
        ma, mb = other.den // g, self.den // g
        return FieldElement(self.field, tuple([
            a * ma + b * mb for a, b in zip(self.nums, other.nums)]),
            self.den * ma)

    def __sub__(self, other):
        # as __add__, in one step: no negated copy of other
        g = gcd(self.den, other.den)
        ma, mb = other.den // g, self.den // g
        return FieldElement(self.field, tuple([
            a * ma - b * mb for a, b in zip(self.nums, other.nums)]),
            self.den * ma)

    def __neg__(self):
        return FieldElement(self.field, tuple([-a for a in self.nums]),
                            self.den)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return FieldElement(self.field,
                                int_mul(self.field.mult_table, self.nums,
                                        other.nums),
                                self.den * other.den)
        q = Fraction(other)
        num = q.numerator
        return FieldElement(self.field, tuple([a * num for a in self.nums]),
                            self.den * q.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FieldElement":
        base = self if k >= 0 else self.inverse()
        out = self.field.one()
        for _ in range(abs(k)):
            out = out * base
        return out

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        # (den * x) y = d * 1, so x^-1 = den * y / d
        one = (1,) + (0,) * (self.field.degree - 1)
        y, d = int_solve(self.field.int_mult_matrix(self.nums), one)
        if d < 0:
            y, d = [-c for c in y], -d
        return FieldElement(self.field, tuple([c * self.den for c in y]), d)

    def __truediv__(self, other):
        if isinstance(other, FieldElement):
            return self * other.inverse()
        return self * (Fraction(1) / Fraction(other))

    def numerator_norm(self) -> int:
        """N(den * x): the norm of the integral numerator, an integer."""
        return int_det(self.field.int_mult_matrix(self.nums))

    def norm(self) -> Fraction:
        return Fraction(self.numerator_norm(), self.den**self.field.degree)

    def trace(self) -> Fraction:
        return Fraction(self.field._int_trace(self.nums), self.den)

    def power_basis(self) -> list[Fraction]:
        field = self.field
        n = field.degree
        den = self.den * field._pb_den
        rows = field._pb_num
        return [Fraction(sum([a * row[j] for a, row in zip(self.nums, rows)]),
                         den) for j in range(n)]

    def denominator(self) -> int:
        """Least d > 0 with d * self integral."""
        return self.den

    def as_rational(self) -> Fraction:
        """The value when the element lies in Q; raises otherwise."""
        pb = self.power_basis()
        if any(c != 0 for c in pb[1:]):
            raise ValueError("element is not rational")
        return pb[0]


def elem_norm_trace(x: FieldElement):
    """Field norm and trace, both exact rationals."""
    return x.norm(), x.trace()


class EmbeddingBox(NamedTuple):
    """Certified enclosures of every archimedean embedding of an element."""
    reals: tuple
    complexes: tuple
    precision: Fraction

    def norm_interval(self) -> Iv:
        """Interval containing |field norm|: reals times squared moduli."""
        out = Iv.point(1)
        for r in self.reals:
            out = out * r.abs()
        for z in self.complexes:
            out = out * z.abs_sq()
        return out


def embed(x: FieldElement, precision) -> EmbeddingBox:
    """Boxes of width <= precision around each embedding.

    Deterministic in (x, precision): the boxes are evaluated on the root
    enclosures of the canonical refinement levels, which are kept per level,
    so the result never depends on what else has been computed in the
    process. Smaller precision gives nested boxes.
    """
    precision = Fraction(precision)
    if precision <= 0:
        raise ValueError("precision must be positive")
    field = x.field
    roots = field.roots()
    pb = x.power_basis()
    level = 16
    for _ in range(80):
        real_roots, cplx_roots = roots.ensure_level(level)
        reals = [eval_interval(pb, box) for box in real_roots]
        comps = [eval_interval(pb, box) for box in cplx_roots]
        widths = [r.width for r in reals] + [c.width for c in comps]
        if not widths or max(widths) <= precision:
            return EmbeddingBox(tuple(reals), tuple(comps), precision)
        level += 6
    raise PrecisionUnreachable(f"embedding width target {precision} not met")


def embedding_rows(elem: FieldElement, width: Fraction) -> list[Iv]:
    """Real coordinates of the embedding of elem, boxes of width <= width:
    the real places, then (re, im) per complex place."""
    box = embed(elem, width)
    row = list(box.reals)
    for z in box.complexes:
        row.append(z.re)
        row.append(z.im)
    return row


class FractionalIdeal:
    """Fractional ideal as an upper-triangular column HNF over the basis.

    The lattice is (1/den) * columns(hnf) in integral-basis coordinates; the
    representation is canonical, so equality is structural equality.
    """

    __slots__ = ("field", "hnf", "den")

    def __init__(self, field: NumberField, hnf_matrix, den: int):
        self.field = field
        g = den
        for row in hnf_matrix:
            for c in row:
                g = gcd(g, c)
        self.hnf = tuple(tuple(int(c // g) for c in row) for row in hnf_matrix)
        self.den = den // g
        self._verify()

    def _verify(self):
        n = self.field.degree
        for i in range(n):
            if self.hnf[i][i] <= 0:
                raise ValueError("HNF diagonal must be positive")
            for j in range(i):
                if self.hnf[i][j] != 0:
                    raise ValueError("HNF must be upper triangular")
            for j in range(i + 1, n):
                if not 0 <= self.hnf[i][j] < self.hnf[i][i]:
                    raise ValueError("entries right of diagonal not reduced")
        # O-module check: omega_i * b_j stays inside the lattice
        for bj in self.basis_elements():
            for ei in self.field.integral_basis:
                if not self.contains(ei * bj):
                    raise ValueError("lattice is not an O-module")

    def basis_element(self, j) -> FieldElement:
        return FieldElement(self.field, tuple([row[j] for row in self.hnf]),
                            self.den)

    def basis_elements(self) -> list[FieldElement]:
        return [self.basis_element(j) for j in range(self.field.degree)]

    def contains(self, x: FieldElement) -> bool:
        w, d = self.int_coords(x)
        return not any([c % d for c in w])

    def int_coords(self, x: FieldElement) -> tuple[list[int], int]:
        """Integers w and d > 0 with w / d the coordinates of x over this
        ideal's HNF basis."""
        # w = scale * H^-1 (den * x.nums) is integral for scale = det H
        h = self.hnf
        n = len(h)
        scale = 1
        for i in range(n):
            scale *= h[i][i]
        w = [0] * n
        for i in range(n - 1, -1, -1):
            w[i] = (scale * self.den * x.nums[i] - sum(
                [h[i][j] * w[j] for j in range(i + 1, n)])) // h[i][i]
        return w, scale * x.den

    def point(self, z, m: int = 1) -> FieldElement:
        """The element with coordinates z / m over this ideal's HNF basis."""
        return FieldElement(self.field, tuple([
            sum([c * h for c, h in zip(z, row)]) for row in self.hnf]),
            self.den * m)

    def reduce(self, x: FieldElement) -> FieldElement:
        """The representative of x modulo this lattice whose coordinates
        over the HNF basis lie in [0, 1)."""
        w, d = self.int_coords(x)
        return self.point([c % d for c in w], d)

    def coords_in_basis(self, x: FieldElement) -> list[Fraction]:
        """Exact coordinates of x over this ideal's HNF basis."""
        w, d = self.int_coords(x)
        return [Fraction(c, d) for c in w]

    def norm(self) -> Fraction:
        n = self.field.degree
        det = 1
        for i in range(n):
            det *= self.hnf[i][i]
        return Fraction(det, self.den**n)

    def __eq__(self, other):
        return (isinstance(other, FractionalIdeal) and self.field == other.field
                and self.hnf == other.hnf and self.den == other.den)

    def __hash__(self):
        return hash((self.hnf, self.den))

    def __repr__(self):
        return f"FractionalIdeal(hnf={[list(r) for r in self.hnf]}, den={self.den})"

    def __mul__(self, other):
        if isinstance(other, FractionalIdeal):
            # the basis products span I * J over Z
            return _lattice([bi * bj for bi in self.basis_elements()
                             for bj in other.basis_elements()])
        return ideal_from_gens([b * other for b in self.basis_elements()])

    def __pow__(self, k: int):
        if k == 0:
            return self.field.maximal_order()
        if k < 0:
            return ideal_invert(self) ** (-k)
        half = self ** (k // 2)
        out = half * half
        if k % 2:
            out = out * self
        return out


def _lattice(elems) -> FractionalIdeal:
    """The ideal whose lattice the elements span over Z: the HNF of their
    numerators over a common denominator."""
    den = lcm(*[e.den for e in elems])
    return FractionalIdeal(elems[0].field, hnf_columns(
        [[a * (den // e.den) for a in e.nums] for e in elems]), den)


def ideal_from_gens(gens) -> FractionalIdeal:
    """Canonical HNF of the O-module generated by the given elements."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ZeroIdeal("all generators are zero")
    basis = gens[0].field.integral_basis
    return _lattice([g * w for g in gens for w in basis])


def ideal_norm(ideal: FractionalIdeal) -> Fraction:
    """det(hnf)/den^n; the lattice index |O/I| for integral I."""
    return ideal.norm()


def ideal_dual(ideal: FractionalIdeal) -> FractionalIdeal:
    """The trace dual {x : Tr(x * ideal) <= Z}.

    With H the ideal's HNF over den and G the trace Gram matrix, x with
    integral-basis coordinates y lies in it when H^T G y is in den * Z^n,
    so its basis is the solutions of H^T G y = den * e_j.
    """
    field = ideal.field
    h, g = ideal.hnf, field.trace_gram
    n = len(h)
    m = [[sum([h[k][i] * g[k][j] for k in range(n)]) for j in range(n)]
         for i in range(n)]
    cols = []
    for j in range(n):
        y, d = int_solve(m, [ideal.den * (i == j) for i in range(n)])
        cols.append(y)
    # d = +-det(m) is the same for every column; the lattice is symmetric
    return FractionalIdeal(field, hnf_columns(cols), abs(d))


@lru_cache(maxsize=64)
def inverse_different(field: NumberField) -> FractionalIdeal:
    """The different's inverse: the trace dual of the maximal order."""
    return ideal_dual(field.maximal_order())


def ideal_invert(ideal: FractionalIdeal) -> FractionalIdeal:
    """Inverse fractional ideal, verified by multiplying back to O.

    I^-1 = (I * D^-1)^perp, with D^-1 the inverse different.
    """
    field = ideal.field
    inv = ideal_dual(ideal * inverse_different(field))
    if ideal * inv != field.maximal_order():
        raise AssertionError("inverse verification failed")
    return inv
