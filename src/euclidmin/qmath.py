"""Exact rational helpers: certified square/nth roots, logs, primality, and
decimal strings of rationals of any length.

Every bound returned here is a plain Fraction and is rigorous (outward
rounding only). Nothing in this module touches floating point.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from math import isqrt

ROOT_BITS = 64   # the root bounds below round up on the grid 2^-ROOT_BITS


def int_str(n: int) -> str:
    """str(n), also past the interpreter's limit on int -> str conversion
    (4,300 digits by default), which the bounds of degree-4 certificates
    exceed: there Decimal, which knows no such limit, writes the digits."""
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def rat_str(q) -> str:
    """str(Fraction(q)) through int_str."""
    q = Fraction(q)
    num = int_str(q.numerator)
    return num if q.denominator == 1 else f"{num}/{int_str(q.denominator)}"


def sqrt_upper(x: Fraction) -> Fraction:
    """Rational upper bound on sqrt(x)."""
    return nth_root_upper(x, 2)


def nth_root_upper(x: Fraction, n: int) -> Fraction:
    """Rational upper bound on x^(1/n) for x >= 0, n >= 1."""
    if x < 0:
        raise ValueError("root of negative rational")
    if x == 0:
        return Fraction(0)
    if n == 1:
        return x
    s = 1 << (n * ROOT_BITS)
    m = -((-x.numerator * s) // x.denominator)  # ceil(x * 2^(n*b))
    # integer n-th root of m, rounded up
    r = _int_nth_root(m, n)
    if r**n < m:
        r += 1
    return Fraction(r, 1 << ROOT_BITS)


def _int_nth_root(m: int, n: int) -> int:
    """Floor of m^(1/n) for m >= 0."""
    if m < 2:
        return m
    if n == 2:
        return isqrt(m)
    hi = 1 << (m.bit_length() // n + 1)
    lo = 0
    while lo < hi - 1:
        mid = (lo + hi) // 2
        if mid**n <= m:
            lo = mid
        else:
            hi = mid
    return lo


# -- dyadic outward rounding --------------------------------------------------
#
# Exact endpoints can grow without bound through long chains of interval
# arithmetic. Where only a certified enclosure is needed, they are rounded
# outward to dyadic rationals of bounded size.


def floor_scaled(x, k: int) -> int:
    """floor(x * 2^k) for a rational or integer x and any integer k."""
    if k >= 0:
        return (x.numerator << k) // x.denominator
    return x.numerator // (x.denominator << -k)


def ceil_scaled(x, k: int) -> int:
    """ceil(x * 2^k) for a rational or integer x and any integer k."""
    return -floor_scaled(-x, k)


def dyadic_outward(lo, hi, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Dyadic rationals lo' <= lo and hi' >= hi, each with at most bits + 1
    significant bits; a nonzero endpoint keeps its sign."""
    def rounded(x, scaled):
        e = 0 if not x else bits - (abs(x.numerator).bit_length()
                                    - x.denominator.bit_length())
        m = scaled(x, e)
        return Fraction(m, 1 << e) if e >= 0 else Fraction(m << -e)

    return rounded(lo, floor_scaled), rounded(hi, ceil_scaled)


# -- certified natural log ----------------------------------------------------

_LN2_CACHE: dict[int, tuple[Fraction, Fraction]] = {}


def _atanh_series(t: Fraction, err: Fraction) -> tuple[Fraction, Fraction]:
    """Enclosure of 2*atanh(t) = ln((1+t)/(1-t)) for 0 <= t < 1.

    Partial sums of 2*sum t^(2k+1)/(2k+1); geometric tail bound.
    """
    if not 0 <= t < 1:
        raise ValueError("the atanh series needs 0 <= t < 1")
    total = Fraction(0)
    term = t
    t2 = t * t
    k = 0
    while True:
        total += 2 * term / (2 * k + 1)
        term *= t2
        # tail <= 2*term/(2k+3) * 1/(1-t^2)
        tail = 2 * term / ((2 * k + 3) * (1 - t2))
        if tail < err:
            return total, total + tail
        k += 1


def ln2_enclosure(err: Fraction) -> tuple[Fraction, Fraction]:
    bits = max(4, -(-err.denominator.bit_length()))
    cached = _LN2_CACHE.get(bits)
    if cached and cached[1] - cached[0] < err:
        return cached
    lo, hi = _atanh_series(Fraction(1, 3), err / 2)
    _LN2_CACHE[bits] = (lo, hi)
    return lo, hi


def ln_enclosure(x: Fraction, err: Fraction) -> tuple[Fraction, Fraction]:
    """Certified rational enclosure [lo, hi] of ln(x), hi - lo < err."""
    if x <= 0:
        raise ValueError("log of nonpositive rational")
    if x == 1:
        return Fraction(0), Fraction(0)
    if x < 1:
        lo, hi = ln_enclosure(1 / x, err)
        return -hi, -lo
    # scale x into [1, 2) by powers of two
    m = 0
    y = x
    while y >= 2:
        y /= 2
        m += 1
    sub_err = err / 3
    if m:
        l2lo, l2hi = ln2_enclosure(sub_err / m)
    else:
        l2lo = l2hi = Fraction(0)
    t = (y - 1) / (y + 1)
    slo, shi = _atanh_series(t, sub_err)
    return m * l2lo + slo, m * l2hi + shi


# -- integers -----------------------------------------------------------------

def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (desk-scale integers)."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while f * f <= n:
        if n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        else:
            f += wheel[i]
            i = (i + 1) % 8
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def int_valuation(n: int, p: int) -> int:
    """Exponent of the prime p in the nonzero integer n."""
    out = 0
    while n % p == 0:
        n //= p
        out += 1
    return out


def squarefree_part(n: int) -> int:
    """Largest squarefree divisor of |n|, with the sign of n."""
    sign = -1 if n < 0 else 1
    out = 1
    for p, e in factorize(n).items():
        if e % 2 == 1:
            out *= p
    return sign * out


def is_fundamental_discriminant(d: int) -> bool:
    if d == 1 or d == 0:
        return False
    if d % 4 == 1:
        return d == squarefree_part(d)
    if d % 4 == 0:
        m = d // 4
        return m == squarefree_part(m) and m % 4 in (2, 3)
    return False

