"""Closed rational intervals and complex rectangles.

Endpoints are Fractions, so all arithmetic is exact; Iv and CIv never
round. Enclosures only widen through genuine interval semantics, and their
endpoints can grow long. Code that needs bounded sizes rounds outward
itself, outside this module: lattice enumeration and the covering's bound
screen move their data to integers on one dyadic grid (enumerate.py,
covering.py), and the log-rank check rounds magnitudes to 64-bit dyadics
before taking logs (units._log_abs_interval, qmath.dyadic_outward).
Three evaluators follow Iv's semantics on integers over a common
denominator: the covering's exact bounds (covering.exact_bound), the
Horner evaluation of a polynomial over an Iv or CIv box
(roots.eval_interval), and the interval determinant of lattice
enumeration's Cramer solve and of the log-rank check
(hnf.int_interval_det).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


Rat = Union[int, Fraction]


class Iv:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Rat, hi: Rat = None):
        if hi is None:
            hi = lo
        lo = lo if type(lo) is Fraction else Fraction(lo)
        hi = hi if type(hi) is Fraction else Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, x: Rat) -> "Iv":
        return cls(x, x)

    def __repr__(self):
        return f"Iv({self.lo}, {self.hi})"

    def __eq__(self, other):
        return isinstance(other, Iv) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __add__(self, other):
        if isinstance(other, Iv):
            return Iv(self.lo + other.lo, self.hi + other.hi)
        return Iv(self.lo + other, self.hi + other)

    __radd__ = __add__

    def __neg__(self):
        return Iv(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Iv) else Iv(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Iv):
            other = Iv.point(Fraction(other))
        c = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return Iv(min(c), max(c))

    __rmul__ = __mul__

    def inverse(self) -> "Iv":
        if self.lo <= 0 <= self.hi:
            raise ZeroDivisionError("interval contains 0")
        return Iv(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        if not isinstance(other, Iv):
            other = Iv.point(Fraction(other))
        return self * other.inverse()

    def contains(self, x) -> bool:
        if isinstance(x, Iv):
            return self.lo <= x.lo and x.hi <= self.hi
        return self.lo <= x <= self.hi

    def strictly_contains(self, x: "Iv") -> bool:
        return self.lo < x.lo and x.hi < self.hi

    def intersect(self, other: "Iv") -> "Iv":
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            raise ValueError("disjoint intervals")
        return Iv(lo, hi)

    def overlaps(self, other: "Iv") -> bool:
        return not (self.hi < other.lo or other.hi < self.lo)

    def sq(self) -> "Iv":
        if self.lo >= 0:
            return Iv(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Iv(self.hi * self.hi, self.lo * self.lo)
        return Iv(0, max(self.lo * self.lo, self.hi * self.hi))

    def abs(self) -> "Iv":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Iv(0, max(-self.lo, self.hi))



class CIv:
    """Complex rectangle re + im*i with interval real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Iv, im: Iv):
        self.re = re
        self.im = im

    @classmethod
    def point(cls, re: Rat, im: Rat = 0) -> "CIv":
        return cls(Iv.point(re), Iv.point(im))

    def __repr__(self):
        return f"CIv({self.re}, {self.im})"

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    def __add__(self, other):
        if isinstance(other, CIv):
            return CIv(self.re + other.re, self.im + other.im)
        return CIv(self.re + other, self.im)

    def __neg__(self):
        return CIv(-self.re, -self.im)

    def __sub__(self, other):
        if isinstance(other, CIv):
            return CIv(self.re - other.re, self.im - other.im)
        return CIv(self.re - other, self.im)

    def __mul__(self, other):
        if isinstance(other, CIv):
            return CIv(self.re * other.re - self.im * other.im,
                       self.re * other.im + self.im * other.re)
        return CIv(self.re * other, self.im * other)

    def abs_sq(self) -> Iv:
        return self.re.sq() + self.im.sq()

    def inverse(self) -> "CIv":
        m = self.abs_sq()
        inv = m.inverse()
        return CIv(self.re * inv, (-self.im) * inv)

    def strictly_contains(self, other: "CIv") -> bool:
        return self.re.strictly_contains(other.re) and self.im.strictly_contains(other.im)

    def intersect(self, other: "CIv") -> "CIv":
        return CIv(self.re.intersect(other.re), self.im.intersect(other.im))
