"""Certified enumeration of lattice points inside archimedean boxes.

Given a Z-basis of a full lattice in the field and per-place magnitude
bounds, produce a finite integer-coordinate superset of every lattice point
whose embeddings fall inside the box. Callers filter candidates exactly, so
interval slack here costs time but never correctness.

The solve works on bounded-size data: every row entry is an integer
interval on the grid 2^-bits. The rows of an element (grid_row) are exact
combinations of the field's integral-basis rows (basis_row_bounds),
rounded outward to that grid, as are the targets; this is the only
rounding here, and the covering's bound screen takes its shift rows from
grid_row at GRID_BITS as well. Cramer's rule runs exactly on Iv with
integer endpoints, whose sizes the grid bounds; a determinant enclosure
holding 0 retries on a finer grid. Iv stays exact, and so does
embedding_rows, behind every recorded covering bound.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor

from .errors import SearchExhausted
from .fields import FieldElement, embed
from .intervals import Iv, interval_det
from .qmath import ceil_scaled, floor_scaled, sqrt_upper

# binary digits of the first grid, and how many more each retry takes
GRID_BITS = 64
GRID_STEP = 16
GRID_TRIES = 12
POINT_CAP = 4_000_000   # most integer points one enumeration may yield


def grid_row(elem: FieldElement, omega) -> list[tuple[int, int]]:
    """Integer enclosures (lo, hi) on the grid of elem's real coordinates:
    the exact combination sum nums_k * omega_k / den, rounded outward."""
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


def _grid_target(t: Iv, bits: int) -> Iv:
    """The integer enclosure of t on the grid 2^-bits, rounded outward."""
    return Iv(floor_scaled(t.lo, bits), ceil_scaled(t.hi, bits))


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
                          targets: list[Iv]):
    """Yield all z in Z^n with embed(offset + sum z_j basis_j) possibly in
    the target box (a certified superset of the true solution set)."""
    field = offset.field
    n = field.degree
    bits = GRID_BITS
    for _ in range(GRID_TRIES):
        try:
            omega = field.basis_row_bounds(bits)
            a_rows = [[Iv(lo, hi) for lo, hi in grid_row(b, omega)]
                      for b in basis]
            # columns of A are basis embedding vectors: A z = target - offset
            a = [[a_rows[j][i] for j in range(n)] for i in range(n)]
            o = grid_row(offset, omega)
            rhs = [_grid_target(targets[i], bits) - Iv(*o[i])
                   for i in range(n)]
            ranges = _interval_solve(a, rhs)
            break
        except ZeroDivisionError:
            bits += GRID_STEP
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
        if total > POINT_CAP:
            raise SearchExhausted(f"enumeration box too large ({total} points)")
    yield from itertools.product(*[range(lo, hi + 1) for lo, hi in bounds])


def elements_in_box(basis, offset, targets):
    """Same as lattice_points_in_box but yields exact field elements."""
    for z in lattice_points_in_box(basis, offset, targets):
        elem = offset
        for zj, bj in zip(z, basis):
            if zj:
                elem = elem + bj * zj
        yield elem
