"""Certified enumeration of lattice points inside archimedean boxes.

Given a Z-basis of a full lattice in the field and per-place magnitude
bounds, produce a finite integer-coordinate superset of every lattice point
whose embeddings fall inside the box. Callers filter candidates exactly, so
interval slack here costs time but never correctness.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor

from .errors import SearchExhausted
from .fields import FieldElement, embed
from .intervals import Iv, interval_det
from .qmath import sqrt_upper


def _interval_solve(a, b):
    """Enclosures of the solution of A x = b by Cramer's rule."""
    n = len(a)
    det = interval_det(a)
    if det.contains(0):
        raise ZeroDivisionError("interval determinant contains zero")
    out = []
    for j in range(n):
        col = [[a[i][k] if k != j else b[i] for k in range(n)] for i in range(n)]
        out.append(interval_det(col) / det)
    return out


def embedding_rows(elem: FieldElement, width: Fraction):
    """Real coordinates of an embedding vector: reals, then (re, im) pairs."""
    box = embed(elem, width)
    row = list(box.reals)
    for z in box.complexes:
        row.append(z.re)
        row.append(z.im)
    return row


def real_box_targets(field, real_bounds, complex_bounds):
    """Per-real-coordinate target intervals from per-place magnitude bounds.

    real_bounds[i] bounds |x|_v at the i-th real place; complex_bounds[i]
    bounds |x|^2_v (squared modulus) at the i-th complex place.
    """
    targets = []
    for c in real_bounds:
        targets.append(Iv(-c, c))
    for c in complex_bounds:
        s = sqrt_upper(Fraction(c))
        targets.append(Iv(-s, s))
        targets.append(Iv(-s, s))
    return targets


def lattice_points_in_box(basis: list[FieldElement], offset: FieldElement,
                          targets: list[Iv], cap: int = 4_000_000):
    """Yield all z in Z^n with embed(offset + sum z_j basis_j) possibly in
    the target box (a certified superset of the true solution set)."""
    field = offset.field
    n = field.degree
    width = Fraction(1, 2**24)
    for _ in range(12):
        try:
            a_rows = [embedding_rows(b, width) for b in basis]
            # columns of A are basis embedding vectors: A z = target - offset
            a = [[a_rows[j][i] for j in range(n)] for i in range(n)]
            o = embedding_rows(offset, width)
            rhs = [targets[i] - o[i] for i in range(n)]
            ranges = _interval_solve(a, rhs)
            break
        except ZeroDivisionError:
            width /= 16
    else:
        raise SearchExhausted("embedding matrix never became regular")
    bounds = []
    total = 1
    for r in ranges:
        lo = ceil(r.lo)
        hi = floor(r.hi)
        if lo > hi:
            return
        bounds.append((lo, hi))
        total *= hi - lo + 1
        if total > cap:
            raise SearchExhausted(f"enumeration box too large ({total} points)")

    def rec(j, acc):
        if j == n:
            yield tuple(acc)
            return
        lo, hi = bounds[j]
        for z in range(lo, hi + 1):
            acc.append(z)
            yield from rec(j + 1, acc)
            acc.pop()

    yield from rec(0, [])


def elements_in_box(basis, offset, targets, cap: int = 4_000_000):
    """Same as lattice_points_in_box but yields exact field elements."""
    for z in lattice_points_in_box(basis, offset, targets, cap):
        elem = offset
        for zj, bj in zip(z, basis):
            if zj:
                elem = elem + bj * zj
        yield elem
