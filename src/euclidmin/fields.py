"""Number fields of degree <= 4 with exact element and ideal arithmetic.

A field is built from a monic irreducible integer polynomial. The maximal
order is computed by radical saturation at every prime whose square divides
the polynomial discriminant, and its correctness is certified afterwards:
the multiplication table over the integral basis must be integral and the
trace-pairing Gram determinant must equal the field discriminant.

An element is a tuple of integer numerators over one positive denominator
(its coordinates over the integral basis, in lowest terms), so all
arithmetic is exact and runs on integers: products contract the integer
multiplication table, sums work over the common denominator, norms are
Bareiss determinants of the integer multiplication matrix, and ideal
membership is integer back-substitution on the HNF. `coords` gives the
same coordinates as Fractions. Archimedean data lives in certified interval
boxes only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import PrecisionUnreachable, UnsupportedDegree, ZeroIdeal
from .hnf import (fp_kernel, hnf_columns, int_det, int_solve, kernel_int,
                  mat_inverse, mat_vec)
from .intervals import Iv
from .polynomials import (certify_irreducible, count_real_roots, deg,
                          poly_discriminant, poly_divmod, poly_mul, root_bound)
from .qmath import ceil_scaled, floor_scaled
from .roots import RootEnclosures, eval_interval


def _pb_mul(f_coeffs, a, b):
    """Multiply two power-basis coordinate vectors modulo the field polynomial."""
    prod = poly_mul(list(a), list(b))
    _, r = poly_divmod(prod, f_coeffs)
    r = list(r) + [Fraction(0)] * (deg(f_coeffs) - len(r))
    return [Fraction(c) for c in r[:deg(f_coeffs)]]


class NumberField:
    """Immutable number field; constructed through make_field."""

    def __init__(self, coeffs: list[int]):
        certify_irreducible(list(coeffs))
        self.coeffs = tuple(int(c) for c in coeffs)
        self.degree = deg(coeffs)
        n = self.degree
        bound = root_bound(list(coeffs))
        r1 = (1 if n == 1 else
              count_real_roots(list(coeffs), -bound, bound))
        self.signature = (r1, (n - r1) // 2)
        pd = poly_discriminant(list(coeffs))
        if pd.denominator != 1 or pd == 0:
            raise AssertionError("poly discriminant is not a nonzero integer")
        self.poly_disc = int(pd)
        basis_pb = _maximal_order(list(self.coeffs), self.poly_disc)
        self.basis_pb = tuple(tuple(row) for row in basis_pb)
        # basis rows over the power basis, as integers over one denominator
        den = lcm(*[c.denominator for row in basis_pb for c in row])
        self._pb_den = den
        self._pb_num = [[int(c * den) for c in row] for row in basis_pb]
        self.index = den**n // abs(int_det(self._pb_num))  # [O : Z[theta]]
        self.discriminant = self.poly_disc // (self.index**2)
        # power-basis to integral-basis coordinates: integral, as Z[theta] <= O
        bt_inv = mat_inverse([[basis_pb[i][j] for i in range(n)]
                              for j in range(n)])
        if any(x.denominator != 1 for row in bt_inv for x in row):
            raise AssertionError("Z[theta] is not inside the computed order")
        self._ib_of_pb = [[int(x) for x in row] for row in bt_inv]
        # integer multiplication table over the integral basis
        table = []
        for i in range(n):
            row = []
            for j in range(n):
                prod_pb = _pb_mul(list(self.coeffs), basis_pb[i], basis_pb[j])
                c = mat_vec(bt_inv, prod_pb)
                if any(x.denominator != 1 for x in c):
                    raise AssertionError("basis not a ring")
                row.append(tuple(int(x) for x in c))
            table.append(tuple(row))
        self.mult_table = tuple(table)
        self._traces = tuple(sum(table[i][k][k] for k in range(n))
                             for i in range(n))
        # trace of omega_i * omega_j certifies the discriminant
        gram = [[self._int_trace(table[i][j]) for j in range(n)]
                for i in range(n)]
        self.trace_gram = tuple(tuple(row) for row in gram)
        if int_det(gram) != self.discriminant:
            raise AssertionError(
                "trace Gram determinant does not certify the discriminant")
        self.integral_basis = tuple(
            FieldElement(self, tuple(int(i == j) for j in range(n)), 1)
            for i in range(n))
        self._roots: RootEnclosures | None = None
        self._basis_rows: dict = {}   # bits -> basis_row_bounds(bits)
        self.places: dict = {}        # p -> its places, see places_above

    # -- the integer kernel ----------------------------------------------------
    # Integral elements given by integer coordinates over the integral basis.

    def int_mul(self, a, b) -> tuple:
        """Coordinates of the product of two integral elements."""
        out = [0] * self.degree
        for x, row in zip(a, self.mult_table):
            if x:
                for y, prod in zip(b, row):
                    if y:
                        xy = x * y
                        for k, t in enumerate(prod):
                            out[k] += xy * t
        return tuple(out)

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
            rows = []
            for w in self.integral_basis:
                box = embed(w, Fraction(1, 2**bits))
                coords = list(box.reals)
                for z in box.complexes:
                    coords += [z.re, z.im]
                rows.append(tuple([(floor_scaled(iv.lo, bits),
                                    ceil_scaled(iv.hi, bits))
                                   for iv in coords]))
            rows = self._basis_rows[bits] = tuple(rows)
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


@lru_cache(maxsize=64)
def _make_field_cached(coeffs: tuple) -> NumberField:
    return NumberField(list(coeffs))


def make_field(coeffs) -> NumberField:
    """Number field defined by a monic integer polynomial, ascending coeffs."""
    if not coeffs:
        raise UnsupportedDegree("empty coefficient list")
    return _make_field_cached(tuple(int(c) for c in coeffs))


def _maximal_order(f_coeffs, disc_poly) -> list[list[Fraction]]:
    """Basis of the maximal order over the power basis (rows; HNF canonical).

    Radical saturation: at each p with p^2 | disc(f), repeatedly replace the
    order O by the multiplier ring of its p-radical until the index at p is
    stable. Primes whose square does not divide disc(f) are already maximal.
    """
    from .qmath import factorize

    n = deg(f_coeffs)
    basis = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    if n == 1:
        return basis
    for p, e in sorted(factorize(disc_poly).items()):
        if e < 2:
            continue
        while True:
            enlarged = _enlarge_at_p(f_coeffs, basis, p)
            if enlarged is None:
                break
            basis = enlarged
    return _hnf_basis(basis)


def _enlarge_at_p(f_coeffs, basis, p):
    """One multiplier-ring step at p; None when the order is p-maximal."""
    n = deg(f_coeffs)
    bt = [[basis[i][j] for i in range(n)] for j in range(n)]
    bt_inv = mat_inverse(bt)

    def to_order_coords(pb):
        return mat_vec(bt_inv, pb)

    def order_mul(ci, cj):
        pb_i = [sum(Fraction(ci[i]) * basis[i][j] for i in range(n)) for j in range(n)]
        pb_j = [sum(Fraction(cj[i]) * basis[i][j] for i in range(n)) for j in range(n)]
        return to_order_coords(_pb_mul(f_coeffs, pb_i, pb_j))

    pm = 1
    while pm < n:
        pm *= p
    # Frobenius-power matrix on O/pO
    frob_cols = []
    for i in range(n):
        acc = [Fraction(1 if k == 0 else 0) for k in range(n)]  # 1 in O-coords
        base = [Fraction(1 if k == i else 0) for k in range(n)]
        e = pm
        while e:
            if e & 1:
                acc = order_mul(acc, base)
            base = order_mul(base, base)
            e >>= 1
        if any(x.denominator != 1 for x in acc):
            raise AssertionError("Frobenius power left the order")
        frob_cols.append([int(x) % p for x in acc])
    frob_rows = [[frob_cols[j][i] for j in range(n)] for i in range(n)]
    rad_kernel = fp_kernel(frob_rows, p)
    # radical lattice in O-coords: kernel lifts plus p*O
    rad_cols = [list(v) for v in rad_kernel]
    rad_cols += [[p if i == j else 0 for i in range(n)] for j in range(n)]
    rad = hnf_columns(rad_cols)
    rad_cols = [[rad[i][j] for i in range(n)] for j in range(n)]
    rad_inv = mat_inverse(rad)

    # y in O with y * rad <= p * rad, as a kernel over F_p
    rows = []
    for rj in rad_cols:
        images = []
        for i in range(n):
            ei = [Fraction(1 if k == i else 0) for k in range(n)]
            prod = order_mul(ei, [Fraction(c) for c in rj])
            rc = mat_vec(rad_inv, prod)
            if any(x.denominator != 1 for x in rc):
                raise AssertionError("radical is not an ideal")
            images.append([int(x) for x in rc])
        for k in range(n):
            rows.append([images[i][k] % p for i in range(n)])
    mult_kernel = fp_kernel(rows, p)
    new_cols = [list(v) for v in mult_kernel]
    new_cols += [[p if i == j else 0 for i in range(n)] for j in range(n)]
    m_lattice = hnf_columns(new_cols)
    det_m = 1
    for i in range(n):
        det_m *= m_lattice[i][i]
    if det_m == p**n:  # M = pO, no growth
        return None
    # O' = (1/p) M, expressed back in power-basis rows
    new_rows = []
    for j in range(n):
        coords = [Fraction(m_lattice[i][j], p) for i in range(n)]
        pb = [sum(coords[i] * basis[i][k] for i in range(n)) for k in range(n)]
        new_rows.append(pb)
    return _hnf_basis(new_rows)


def _hnf_basis(rows) -> list[list[Fraction]]:
    """Canonical HNF form of an order basis given by power-basis rows."""
    n = len(rows)
    den = lcm(*[c.denominator for row in rows for c in row])
    cols = [[int(rows[j][i] * den) for i in range(n)] for j in range(n)]
    h = hnf_columns(cols)
    return [[Fraction(h[i][j], den) for i in range(n)] for j in range(n)]
    # note: column j of h becomes basis row j


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
        return self + (-other)

    def __neg__(self):
        return FieldElement(self.field, tuple([-a for a in self.nums]),
                            self.den)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return FieldElement(self.field,
                                self.field.int_mul(self.nums, other.nums),
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


@dataclass(frozen=True)
class EmbeddingBox:
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


class FractionalIdeal:
    """Fractional ideal as an upper-triangular column HNF over the basis.

    The lattice is (1/den) * columns(hnf) in integral-basis coordinates; the
    representation is canonical, so equality is structural equality.
    """

    __slots__ = ("field", "hnf", "den")

    def __init__(self, field: NumberField, hnf_matrix, den: int, _checked=False):
        self.field = field
        g = den
        for row in hnf_matrix:
            for c in row:
                g = gcd(g, c)
        self.hnf = tuple(tuple(int(c // g) for c in row) for row in hnf_matrix)
        self.den = den // g
        if not _checked:
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
        # H t = den * x.nums / x.den, back-substituted over the integers
        h = self.hnf
        n = len(h)
        dx = x.den
        t = [0] * n
        for i in range(n - 1, -1, -1):
            r = self.den * x.nums[i] - dx * sum(
                [h[i][j] * t[j] for j in range(i + 1, n)])
            q, rem = divmod(r, dx * h[i][i])
            if rem:
                return False
            t[i] = q
        return True

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
            prods = [bi * bj for bi in self.basis_elements()
                     for bj in other.basis_elements()]
            return ideal_from_gens(prods)
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


def ideal_from_gens(gens) -> FractionalIdeal:
    """Canonical HNF of the O-module generated by the given elements."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ZeroIdeal("all generators are zero")
    field = gens[0].field
    elems = [g * w for g in gens for w in field.integral_basis]
    den = lcm(*[e.den for e in elems])
    cols = [[a * (den // e.den) for a in e.nums] for e in elems]
    h = hnf_columns(cols)
    return FractionalIdeal(field, h, den)


def ideal_norm(ideal: FractionalIdeal) -> Fraction:
    """det(hnf)/den^n; the lattice index |O/I| for integral I."""
    return ideal.norm()


def ideal_invert(ideal: FractionalIdeal) -> FractionalIdeal:
    """Inverse fractional ideal, verified by multiplying back to O.

    Solves x * I <= O as an integer kernel problem.
    """
    field = ideal.field
    n = field.degree
    m0 = 1
    for i in range(n):
        m0 *= ideal.hnf[i][i]
    # basis element j is column j of the HNF over den, so x = v / m0 lies
    # in the inverse when B_j v is in den * m0 * Z^n for every j, with
    # B_j the integer multiplication matrix of column j
    rows = []
    for j in range(n):
        rows += field.int_mult_matrix([ideal.hnf[i][j] for i in range(n)])
    kern = kernel_int(_augment(rows, ideal.den * m0))
    vs = [k[:n] for k in kern]
    h = hnf_columns([v for v in vs if any(v)])
    inv = FractionalIdeal(field, h, m0)
    if ideal * inv != field.maximal_order():
        raise AssertionError("inverse verification failed")
    return inv


def _augment(rows, modulus):
    """Rows of [B | modulus * I] for the kernel-mod-lattice computation."""
    m = len(rows)
    out = []
    for i, row in enumerate(rows):
        out.append(list(row) + [modulus if k == i else 0 for k in range(m)])
    return out
