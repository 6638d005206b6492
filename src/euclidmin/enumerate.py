"""Certified enumeration of lattice points inside archimedean boxes.

Given a Z-basis of a full lattice in the field and per-place magnitude
bounds, produce a finite integer-coordinate superset of every lattice point
whose embeddings fall inside the box. Callers filter candidates exactly, so
interval slack here costs time but never correctness.

The solve works on integers: every row entry is an integer interval
(lo, hi) on the grid 2^-bits. The rows of an element (fields.grid_row)
are exact combinations of the field's integral-basis rows
(basis_row_bounds), rounded outward to that grid, as are the targets;
this is the only rounding here, and the covering's bound screen takes its
shift rows from grid_row at GRID_BITS as well. Cramer's rule runs on
these pairs (hnf.int_interval_det); each range spans the four endpoint
quotients, by floor division, and a determinant enclosure holding 0
retries on a finer grid. Points are built as integer combinations over
one denominator.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .errors import SearchExhausted
from .fields import GRID_BITS, FieldElement, grid_row
from .hnf import int_interval_det
from .intervals import Iv
from .qmath import ceil_scaled, floor_scaled, sqrt_upper

# binary digits each retry adds to the grid, which starts at GRID_BITS
GRID_STEP = 16
GRID_TRIES = 12
POINT_CAP = 4_000_000   # most integer points one enumeration may yield


def _grid_target(t: Iv, bits: int) -> Iv:
    """The integer enclosure of t on the grid 2^-bits, rounded outward."""
    return Iv(floor_scaled(t.lo, bits), ceil_scaled(t.hi, bits))


def _interval_solve(a, b):
    """Integer ranges (lo, hi) of the solution of A x = b by Cramer's rule,
    for integer interval entries (lo, hi): each range runs from the ceiling
    of the least to the floor of the greatest of the four endpoint
    quotients of det(A_j) / det(A)."""
    n = len(a)
    d_lo, d_hi = int_interval_det(a)
    if d_lo <= 0 <= d_hi:
        raise ZeroDivisionError("interval determinant contains zero")
    out = []
    for j in range(n):
        col = [[a[i][k] if k != j else b[i] for k in range(n)] for i in range(n)]
        c_lo, c_hi = int_interval_det(col)
        out.append((-max(-c_lo // d_lo, -c_lo // d_hi, -c_hi // d_lo, -c_hi // d_hi),
                    max(c_lo // d_lo, c_lo // d_hi, c_hi // d_lo, c_hi // d_hi)))
    return out


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
            a_rows = [grid_row(b, omega) for b in basis]
            # columns of A are basis embedding vectors: A z = target - offset
            a = [[a_rows[j][i] for j in range(n)] for i in range(n)]
            o = grid_row(offset, omega)
            rhs = []
            for t, (o_lo, o_hi) in zip(targets, o):
                g = _grid_target(t, bits)
                rhs.append((int(g.lo) - o_hi, int(g.hi) - o_lo))
            ranges = _interval_solve(a, rhs)
            break
        except ZeroDivisionError:
            bits += GRID_STEP
    else:
        raise SearchExhausted("embedding matrix never became regular")
    total = 1
    for lo, hi in ranges:
        if lo > hi:
            return
        total *= hi - lo + 1
        if total > POINT_CAP:
            raise SearchExhausted(f"enumeration box too large ({total} points)")
    yield from itertools.product(*[range(lo, hi + 1) for lo, hi in ranges])


def elements_in_box(basis, offset, targets):
    """Same as lattice_points_in_box but yields exact field elements, each
    offset + sum z_j basis_j on integers over one common denominator."""
    field = offset.field
    den = lcm(offset.den, *[b.den for b in basis])
    start = [x * (den // offset.den) for x in offset.nums]
    rows = [[x * (den // b.den) for x in b.nums] for b in basis]
    for z in lattice_points_in_box(basis, offset, targets):
        nums = start
        for zj, row in zip(z, rows):
            if zj:
                nums = [x + zj * y for x, y in zip(nums, row)]
        yield FieldElement(field, tuple(nums), den)
