"""Polynomial arithmetic over Q and F_p.

Polynomials are coefficient lists in ascending order (index = exponent).
Includes Sturm chains, irreducibility certification for degree at most 4,
and factorization mod p.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

from .errors import NonMonic, ReduciblePolynomial, UnsupportedDegree


def deg(f) -> int:
    return len(f) - 1


def trim(f):
    while len(f) > 1 and f[-1] == 0:
        f = f[:-1]
    return f


def poly_add(f, g):
    n = max(len(f), len(g))
    return trim([(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0)
                 for i in range(n)])


def poly_neg(f):
    return [-c for c in f]


def poly_sub(f, g):
    return poly_add(f, poly_neg(g))


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def poly_divmod(f, g):
    """Division with remainder over a field (Fraction coefficients)."""
    f = [Fraction(c) for c in f]
    g = [Fraction(c) for c in g]
    if g == [Fraction(0)]:
        raise ZeroDivisionError
    q = [Fraction(0)] * max(1, len(f) - len(g) + 1)
    r = f[:]
    dg, lg = deg(g), g[-1]
    while deg(trim(r)) >= dg and any(r):
        r = trim(r)
        if deg(r) < dg:
            break
        c = r[-1] / lg
        k = deg(r) - dg
        q[k] = c
        for i in range(len(g)):
            r[i + k] -= c * g[i]
        r = r[:-1]
        if not r:
            r = [Fraction(0)]
    return trim(q), trim(r)


def poly_eval(f, x):
    out = 0
    for c in reversed(f):
        out = out * x + c
    return out


def derivative(f):
    if len(f) == 1:
        return [0 * f[0]]
    return [i * f[i] for i in range(1, len(f))]


# -- Sturm chains -------------------------------------------------------------

def sturm_chain(f):
    f = trim([Fraction(c) for c in f])
    chain = [f, trim([Fraction(c) for c in derivative(f)])]
    while deg(chain[-1]) > 0 or chain[-1] != [Fraction(0)]:
        _, r = poly_divmod(chain[-2], chain[-1])
        r = trim(r)
        if r == [Fraction(0)]:
            break
        chain.append(poly_neg(r))
    return chain


def _sign_changes(chain, x) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(f, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots of squarefree f in (a, b]."""
    chain = sturm_chain(f)
    return _sign_changes(chain, a) - _sign_changes(chain, b)


def root_bound(f) -> Fraction:
    """Cauchy bound: all complex roots have |z| <= bound (monic input)."""
    lead = Fraction(f[-1])
    return 1 + max(abs(Fraction(c) / lead) for c in f[:-1]) if len(f) > 1 else Fraction(1)


def isolate_real_roots(f) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (a, b] each holding one real root of f.

    Requires squarefree f. Returned intervals are sorted.
    """
    chain = sturm_chain(f)
    bound = root_bound(f)
    out = []

    def recurse(a, b, count):
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        m = (a + b) / 2
        left = _sign_changes(chain, a) - _sign_changes(chain, m)
        recurse(a, m, left)
        recurse(m, b, count - left)

    total = count_real_roots(f, -bound, bound)
    recurse(-bound, bound, total)
    return sorted(out)


# -- irreducibility over Q (monic integer input, degree <= 4) ----------------

def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def integer_roots(f) -> list[int]:
    """Integer roots of a monic integer polynomial (rational root test)."""
    if f[0] == 0:
        return [0] + [r for r in integer_roots(trim(f[1:])) if r != 0]
    roots = []
    for d in _divisors(f[0]):
        for r in (d, -d):
            if poly_eval(f, r) == 0:
                roots.append(r)
    return sorted(set(roots))


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def certify_irreducible(coeffs: list[int]) -> None:
    """Raise unless the monic integer polynomial is irreducible over Q.

    Supported degrees 1..4: rational-root elimination plus, for quartics,
    exhaustion of monic integer quadratic factor pairs (Gauss's lemma makes
    that complete).
    """
    if coeffs[-1] != 1:
        raise NonMonic(f"leading coefficient {coeffs[-1]} != 1")
    n = deg(coeffs)
    if n < 1:
        raise UnsupportedDegree("constant polynomial")
    if n > 4:
        raise UnsupportedDegree(f"degree {n} > 4 not certifiable here")
    if n == 1:
        return
    roots = integer_roots(coeffs)
    if roots:
        raise ReduciblePolynomial(f"integer root {roots[0]}")
    if n <= 3:
        return
    # quartic: x^4 + a x^3 + b x^2 + c x + d = (x^2+p x+q)(x^2+r x+s)
    d0, c, b, a, _ = coeffs
    if d0 == 0:
        raise ReduciblePolynomial("root 0")
    for q in _divisors(d0):
        for q_signed in (q, -q):
            if d0 % q_signed != 0:
                continue
            s = d0 // q_signed
            # p + r = a, p r = b - q - s, p s + q r = c
            disc = a * a - 4 * (b - q_signed - s)
            if not _is_square(disc):
                continue
            rt = isqrt(disc)
            for p2 in (a + rt, a - rt):
                if p2 % 2 != 0:
                    continue
                p = p2 // 2
                r = a - p
                if p * s + q_signed * r == c:
                    raise ReduciblePolynomial(
                        f"quadratic factor x^2+{p}x+{q_signed}")
    return


# -- arithmetic mod p ---------------------------------------------------------
# pmod, pmul and pdivmod work over F_p; pdivmod inverts the divisor's leading
# coefficient mod p.

def pmod(f, p):
    return trim([c % p for c in f])


def pmul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return trim(out)


def pdivmod(f, g, p):
    f = list(f)
    dg = deg(g)
    inv = pow(g[-1], -1, p)
    q = [0] * max(1, len(f) - dg)
    while deg(trim(f)) >= dg and any(f):
        f = trim(f)
        if deg(f) < dg:
            break
        c = f[-1] * inv % p
        k = deg(f) - dg
        q[k] = c
        for i in range(len(g)):
            f[i + k] = (f[i + k] - c * g[i]) % p
        f = f[:-1] or [0]
    return trim(q), trim(f)


def pgcd(f, g, p):
    f, g = trim(pmod(f, p)), trim(pmod(g, p))
    while g != [0]:
        _, r = pdivmod(f, g, p)
        f, g = g, r
    if f != [0]:
        inv = pow(f[-1], -1, p)
        f = [c * inv % p for c in f]
    return f


def ppow_mod(base, e, modpoly, p):
    result = [1]
    base = pdivmod(base, modpoly, p)[1]
    while e:
        if e & 1:
            result = pdivmod(pmul(result, base, p), modpoly, p)[1]
        base = pdivmod(pmul(base, base, p), modpoly, p)[1]
        e >>= 1
    return result


def squarefree_decompose_mod_p(f, p) -> list[tuple[list[int], int]]:
    """(squarefree factor, multiplicity) pieces of a monic f over F_p."""
    out = []
    g = trim(pmod(f, p))
    gp = trim([i * g[i] % p for i in range(1, len(g))]) if deg(g) > 0 else [0]
    if deg(g) == 0:
        return out
    if gp == [0]:
        # g = h(x)^p since Frobenius fixes F_p coefficients
        h = trim([g[i] for i in range(0, len(g), p)])
        return [(part, p * m) for part, m in squarefree_decompose_mod_p(h, p)]
    c = pgcd(g, gp, p)
    w = pdivmod(g, c, p)[0]
    i = 1
    while deg(w) > 0:
        y = pgcd(w, c, p)
        piece = pdivmod(w, y, p)[0]
        if deg(piece) > 0:
            out.append((piece, i))
        w = y
        if deg(y) > 0:
            c = pdivmod(c, y, p)[0]
        i += 1
    if deg(c) > 0:
        # c is a p-th power; the call returns its multiplicities times p
        out.extend(squarefree_decompose_mod_p(c, p))
    return out


def factor_mod_p(f, p) -> list[tuple[list[int], int]]:
    """Factor a monic polynomial into monic irreducibles over F_p.

    Returns (factor, multiplicity) pairs, deterministic order (sorted by
    degree then coefficients). Squarefree split, then distinct-degree, then
    Cantor-Zassenhaus equal-degree splitting with a seeded generator.
    """
    f = pmod(f, p)
    if f[-1] != 1:
        raise ValueError("polynomial must be monic mod p")
    rng = random.Random(hash((p, tuple(f))) & 0xFFFFFFFF)
    factors: dict[tuple, int] = {}

    def record(g, mult):
        key = tuple(g)
        factors[key] = factors.get(key, 0) + mult

    def equal_degree_split(g, d):
        """Split g (product of distinct irreducibles of degree d) fully."""
        if deg(g) == d:
            return [g]
        while True:
            t = trim([rng.randrange(p) for _ in range(deg(g))] + [1])
            if p == 2:
                # additive trace map of F_{2^d}
                w = pdivmod(t, g, p)[1]
                acc = w
                for _ in range(d - 1):
                    w = pdivmod(pmul(w, w, p), g, p)[1]
                    acc = trim(pmod(poly_add(acc, w), p))
                h = pgcd(acc, g, p)
            else:
                e = (p**d - 1) // 2
                w = ppow_mod(t, e, g, p)
                h = pgcd(pmod(poly_add(w, [-1]), p), g, p)
            if 0 < deg(h) < deg(g):
                rest = pdivmod(g, h, p)[0]
                return equal_degree_split(h, d) + equal_degree_split(rest, d)

    for sqfree, mult in squarefree_decompose_mod_p(f, p):
        g = sqfree
        d = 1
        xq = ppow_mod([0, 1], p, g, p)  # x^(p^d) mod g, starting at d=1
        while deg(g) >= 2 * d:
            h = pgcd(pmod(poly_sub(xq, [0, 1]), p), g, p)
            if deg(h) > 0:
                for irr in equal_degree_split(h, d):
                    record(irr, mult)
                g = pdivmod(g, h, p)[0]
                if deg(g) == 0:
                    break
                xq = pdivmod(xq, g, p)[1]
            d += 1
            if deg(g) >= 2 * d:
                xq = ppow_mod(xq, p, g, p)
        if deg(g) > 0:
            record(g, mult)

    out = [(list(k), m) for k, m in factors.items()]
    out.sort(key=lambda t: (deg(t[0]), t[0]))
    return out
