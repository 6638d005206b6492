"""Checks computed apart from euclidmin, with the stdlib only.

Nothing here imports the package under test. Elements are given by their
power-basis coordinates (a list of Fractions over 1, theta, theta^2, ...),
rationals by Fractions; every test is exact.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction


# -- integers and rationals ---------------------------------------------------


def vp(n: int, p: int) -> int:
    """Exponent of p in the nonzero integer n."""
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def vp_rat(q: Fraction, p: int):
    """p-adic valuation of a rational; None stands for +infinity at 0."""
    if q == 0:
        return None
    return vp(q.numerator, p) - vp(q.denominator, p)


def s_free(q: Fraction, primes) -> Fraction:
    """|q| with every prime of `primes` removed from numerator and denominator.

    Over Q this is the S-norm. For a field element it turns |N(x)| into the
    S-norm when S holds every place above each listed prime.
    """
    num, den = abs(q.numerator), q.denominator
    for p in primes:
        while num and num % p == 0:
            num //= p
        while den % p == 0:
            den //= p
    return Fraction(num, den)


def rational_orbit(x: Fraction, primes) -> set:
    """Classes of x modulo Z[1/S] under the S-units, as rationals in [0, 1).

    After scaling by S-units the denominator q is prime to S, and the class
    of x is that of its numerator modulo q; the units act on it through -1
    and the primes of S.
    """
    x = Fraction(x)
    for p in primes:
        while x.denominator % p == 0:
            x *= p
    q = x.denominator
    start = x.numerator % q
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for c in frontier:
            for mult in list(primes) + [q - 1]:
                c2 = c * mult % q
                if c2 not in seen:
                    seen.add(c2)
                    nxt.append(c2)
        frontier = nxt
    return {Fraction(c, q) for c in seen}


def rational_minimum(x: Fraction, primes) -> Fraction:
    """Residue-orbit oracle for the minimum of a rational class over Z[1/S]:
    nonzero values N_S(x - gamma) are the distances from the points of the
    orbit to the integers, so the minimum is the least of them."""
    return min(min(c, 1 - c) for c in rational_orbit(x, primes))


def reduce_rational(x: Fraction, primes) -> Fraction:
    """The class of x modulo Z[1/S] as a rational in [0, 1) with denominator
    prime to S (for x whose denominator is prime to S, this is x mod 1)."""
    x = Fraction(x)
    q = x.denominator
    for p in primes:
        while q % p == 0:
            q //= p
    # x = n / (q * s) with s an S-number; drop the S-number part modulo Z[1/S]
    s = x.denominator // q
    n = x.numerator
    # n / (q s) = a / q + b / s with a*s + b*q = n; b / s lies in Z[1/S]
    a = n * pow(s, -1, q) % q if q > 1 else 0
    return Fraction(a, q)


# -- polynomials and norms ----------------------------------------------------


def _mat_det(rows) -> Fraction:
    """Determinant by fraction-exact Gaussian elimination."""
    m = [[Fraction(c) for c in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def norm(poly, x) -> Fraction:
    """Absolute norm of sum x_i theta^i, theta a root of the monic `poly`
    (ascending coefficients), as the determinant of multiplication by x."""
    n = len(poly) - 1
    x = [Fraction(c) for c in x]
    # columns: x * theta^j reduced modulo poly
    cols = []
    cur = list(x)
    for _ in range(n):
        cols.append(cur)
        shifted = [Fraction(0)] + cur[:-1]
        top = cur[-1]
        cur = [shifted[i] - top * poly[i] for i in range(n)]
    return _mat_det([[cols[j][i] for j in range(n)] for i in range(n)])


def mul(poly, x, y) -> list:
    """Product of two elements in power-basis coordinates."""
    n = len(poly) - 1
    prod = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(x):
        if a:
            for j, b in enumerate(y):
                prod[i + j] += Fraction(a) * b
    for k in range(2 * n - 2, n - 1, -1):
        top = prod[k]
        if top:
            for i in range(n):
                prod[k - n + i] -= top * poly[i]
    return prod[:n]


def sub(x, y) -> list:
    return [Fraction(a) - b for a, b in zip(x, y)]


def to_power(basis_pb, coords) -> list:
    """Integral-basis coordinates to power-basis coordinates."""
    n = len(basis_pb)
    return [sum(Fraction(coords[i]) * Fraction(basis_pb[i][j]) for i in range(n))
            for j in range(n)]


# -- quadratic fields ---------------------------------------------------------


def quadratic_discriminant(poly) -> tuple[int, int]:
    """Field discriminant d_K and the index [O : Z[theta]] for x^2 + c1 x + c0."""
    c0, c1 = poly[0], poly[1]
    d0 = c1 * c1 - 4 * c0
    core = d0
    p = 2
    while p * p <= abs(core):
        while core % (p * p) == 0:
            core //= p * p
        p += 1
    dk = core if core % 4 == 1 else 4 * core
    index = math.isqrt(d0 // dk)
    assert index * index * dk == d0
    return dk, index


def quadratic_maximal_order(poly) -> list:
    """A Z-basis of the maximal order in power-basis coordinates."""
    c0, c1 = poly[0], poly[1]
    dk, index = quadratic_discriminant(poly)
    if index == 1:
        return [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    # O = Z + Z (theta + s) / index for the shift s that makes it integral
    for s in range(index):
        w = [Fraction(s, index), Fraction(1, index)]
        nrm = norm(poly, w)
        trace = 2 * w[0] - c1 * w[1]
        if nrm.denominator == 1 and trace.denominator == 1:
            return [[Fraction(1), Fraction(0)], w]
    raise ValueError(f"no maximal order found for {poly}")


def same_lattice(rows_a, rows_b) -> bool:
    """Whether two bases span the same lattice: equal covolume, and every
    vector of one has integral coordinates over the other."""
    det_a = _mat_det(rows_a)
    return det_a != 0 and abs(det_a) == abs(_mat_det(rows_b)) and all(
        c.denominator == 1 for row in rows_b for c in coords_over(rows_a, row))


def coords_over(rows, x):
    """Coordinates of x over the basis `rows` (x = sum c_i rows[i])."""
    n = len(rows)
    # augmented system with the basis vectors as columns
    m = [[Fraction(rows[j][i]) for j in range(n)] + [Fraction(x[i])]
         for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col] / m[col][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def is_s_number(q: Fraction, primes) -> bool:
    """Whether the denominator of q has no prime outside `primes`."""
    return s_free(Fraction(1, q.denominator), primes) == 1


def spans_power_lattice(basis_pb) -> bool:
    """Whether the rows form a Z-basis of Z[theta] (integral, unimodular)."""
    return (all(Fraction(c).denominator == 1 for row in basis_pb for c in row)
            and abs(_mat_det(basis_pb)) == 1)


def lattice_det(rows) -> Fraction:
    return abs(_mat_det(rows))


def definite_form_min(a, b, c, px, py) -> Fraction:
    """min over integers (m, n) of f(px - m, py - n), f = aX^2 + bXY + cY^2
    positive definite.

    From 4a f = (2aX + bY)^2 - D Y^2 with D = b^2 - 4ac < 0, any point with
    f <= B has Y^2 <= 4aB/(-D), and likewise X^2 <= 4cB/(-D). Taking B as
    the value at the rounded point, that window provably holds the minimiser.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    px, py = Fraction(px), Fraction(py)
    disc = b * b - 4 * a * c
    if not (a > 0 and disc < 0):
        raise ValueError("form is not positive definite")

    def f(x, y):
        return a * x * x + b * x * y + c * y * y

    best = f(px - round(px), py - round(py))
    rx = 4 * c * best / -disc
    ry = 4 * a * best / -disc
    wx = math.isqrt(math.ceil(rx)) + 1
    wy = math.isqrt(math.ceil(ry)) + 1
    cx, cy = math.floor(px), math.floor(py)
    for m in range(cx - wx, cx + wx + 2):
        x = px - m
        if x * x > rx:
            continue
        for n in range(cy - wy, cy + wy + 2):
            y = py - n
            if y * y > ry:
                continue
            v = f(x, y)
            if v < best:
                best = v
    return best


def lattice_form(poly, beta, ideal_norm):
    """Coefficients of N(X beta0 + Y beta1) / N(a) for a quadratic field."""
    n0 = norm(poly, beta[0])
    n1 = norm(poly, beta[1])
    n01 = norm(poly, [u + v for u, v in zip(beta[0], beta[1])])
    return (n0 / ideal_norm, (n01 - n0 - n1) / ideal_norm, n1 / ideal_norm)


def imaginary_quadratic_minimum(poly, beta, ideal_norm, xi) -> Fraction:
    """Exact minimum of N(xi - gamma)/N(a) over gamma in the lattice `beta`
    (power-basis rows) of an imaginary quadratic field, S empty."""
    a, b, c = lattice_form(poly, beta, ideal_norm)
    px, py = coords_over(beta, xi)
    return definite_form_min(a, b, c, px, py)


# -- certificates -------------------------------------------------------------


def _rat(s) -> Fraction:
    return Fraction(s)


def q_certificate_point(cert: dict, primes, u: Fraction,
                        scale: int = 1) -> str | None:
    """Check one rational point against a covering certificate over Q with
    a = scale * Z: exactly one box holds it, and that box's shift brings
    N_S(x - gamma) / N_S(a) below the threshold.

    The point is x = scale * u with u in [0, 1) of denominator prime to S;
    u is its coordinate over the ideal basis. Returns None when the point is
    covered, otherwise a description of the defect.
    """
    if cert["ideal_hnf"] != [[scale]] or cert["ideal_den"] != 1:
        return f"certificate is not for the ideal {scale}Z"
    t = _rat(cert["threshold"])
    x = u * scale
    hits = []
    for e in cert["entries"]:
        box = e["box"]
        if not _rat(box["lo"][0]) <= u < _rat(box["hi"][0]):
            continue
        center = _rat(box["center"][0])
        inside = True
        for p, k in zip(primes, box["exponents"]):
            if k == 0:
                continue
            w = vp_rat(x - center, p)
            if w is not None and w < k:
                inside = False
                break
        if inside:
            hits.append(e)
    if len(hits) != 1:
        return f"{len(hits)} boxes hold the point {x}"
    gamma = _rat(hits[0]["gamma"][0])
    value = (s_free(x - gamma, primes) if x != gamma else Fraction(0)) \
        / s_free(Fraction(scale), primes)
    if not value < t:
        return f"point {x}: N_S(x - gamma) / N_S(a) = {value} is not below {t}"
    return None


def quadratic_certificate_point(cert: dict, poly, basis_pb, u: Fraction,
                                v: Fraction) -> str | None:
    """Check one point of a quadratic field with S empty against a covering
    certificate. The point is u*b0 + v*b1 over the certificate's ideal basis,
    with (u, v) in [0, 1)^2."""
    t = _rat(cert["threshold"])
    hnf, den = cert["ideal_hnf"], cert["ideal_den"]
    cols = [[Fraction(hnf[i][j], den) for i in range(2)] for j in range(2)]
    ideal_norm = abs(_mat_det([[hnf[i][j] for j in range(2)] for i in range(2)])
                     ) / Fraction(den) ** 2
    hits = [e for e in cert["entries"]
            if _rat(e["box"]["lo"][0]) <= u < _rat(e["box"]["hi"][0])
            and _rat(e["box"]["lo"][1]) <= v < _rat(e["box"]["hi"][1])]
    if len(hits) != 1:
        return f"{len(hits)} boxes hold the point ({u}, {v})"
    x_int = [u * cols[0][i] + v * cols[1][i] for i in range(2)]
    gamma_int = [_rat(g) for g in hits[0]["gamma"]]
    diff = to_power(basis_pb, sub(x_int, gamma_int))
    value = abs(norm(poly, diff)) / ideal_norm
    if not value < t:
        return f"point ({u}, {v}): ratio {value} is not below {t}"
    return None


# -- reports ------------------------------------------------------------------


def content_hash(report: dict) -> str:
    """SHA-256 of the canonical payload: every key but timing and the hash,
    sorted keys, compact separators."""
    payload = {k: v for k, v in report.items()
               if k not in ("timing", "content_hash")}
    return hashlib.sha256(json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")).encode()).hexdigest()


def canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
