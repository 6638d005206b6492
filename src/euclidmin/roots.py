"""Certified enclosures for all roots of a monic irreducible integer polynomial.

Real roots are isolated exactly with Sturm chains and tightened by bisection
plus interval Newton. Complex roots start from float Durand-Kerner seeds and
are then certified with a rectangle Newton step: if N(X) lands strictly
inside X the box holds exactly one root, and the intersection refines it.
All certification arithmetic is exact rational. Every evaluation of a
polynomial over a box, here and in fields.embed, goes through eval_interval,
which runs Horner on integers over a common denominator and builds its
Fractions only at the end.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import PrecisionUnreachable
from .intervals import CIv, Iv
from .polynomials import (deg, derivative, isolate_real_roots, poly_eval,
                          root_bound)

DK_ITERS = 400          # Durand-Kerner sweeps for the complex seeds
ISOLATION_WIDTH = Fraction(1, 2**20)    # real boxes after isolation
NEWTON_TRIES = 60       # interval Newton steps to certify a complex box
REFINE_STEPS = 200      # steps of one refinement to a width


def _over_lcm(qs) -> tuple[list[int], int]:
    """Integer numerators of the rationals qs over their lcm, and the lcm."""
    d = lcm(*[q.denominator for q in qs])
    return [q.numerator * (d // q.denominator) for q in qs], d


def eval_interval(coeffs, x):
    """Horner enclosure of the polynomial coeffs (ints or Fractions,
    ascending) over an Iv or a CIv box.

    The result is that of Horner in Iv/CIv arithmetic started from x - x
    (not from 0), run on integers: the box's endpoints over their lcm d, the
    coefficients over theirs, e, and after k steps every endpoint over
    e * d^(k+1). An interval product is the min and max of four integer
    products, a difference pairs each lower end with the other's upper end,
    and one Fraction is built per endpoint at the end. An Iv is evaluated
    as a CIv with imaginary part [0, 0], which stays 0 throughout.
    """
    cs, e = _over_lcm(coeffs)
    real = isinstance(x, Iv)
    re, im = (x, Iv(0)) if real else (x.re, x.im)
    (ra, rb, ia, ib), d = _over_lcm((re.lo, re.hi, im.lo, im.hi))
    rlo, rhi = (ra - rb) * e, (rb - ra) * e
    ilo, ihi = (ia - ib) * e, (ib - ia) * e
    scale = d
    for c in reversed(cs):
        # (out.re + i out.im)(x.re + i x.im) + c, one interval product each
        rr = (rlo * ra, rlo * rb, rhi * ra, rhi * rb)
        ii = (ilo * ia, ilo * ib, ihi * ia, ihi * ib)
        ri = (rlo * ia, rlo * ib, rhi * ia, rhi * ib)
        ir = (ilo * ra, ilo * rb, ihi * ra, ihi * rb)
        scale *= d
        c *= scale
        rlo, rhi = min(rr) - max(ii) + c, max(rr) - min(ii) + c
        ilo, ihi = min(ri) + min(ir), max(ri) + max(ir)
    den = e * scale
    out = Iv(Fraction(rlo, den), Fraction(rhi, den))
    return out if real else CIv(out, Iv(Fraction(ilo, den),
                                        Fraction(ihi, den)))


def _durand_kerner(coeffs):
    n = deg(coeffs)
    fc = [complex(c) for c in coeffs]

    def f(z):
        out = 0j
        for c in reversed(fc):
            out = out * z + c
        return out

    radius = float(root_bound(coeffs))
    zs = [(0.4 + 0.9j) ** (k + 1) * radius for k in range(n)]
    for _ in range(DK_ITERS):
        moved = 0.0
        for k in range(n):
            d = 1.0 + 0j
            for j in range(n):
                if j != k:
                    d *= zs[k] - zs[j]
            if d == 0:
                d = 1e-30
            step = f(zs[k]) / d
            zs[k] -= step
            moved = max(moved, abs(step))
        if moved < 1e-14:
            break
    return zs


class RootEnclosures:
    """Disjoint certified boxes around every root; refinable in place."""

    def __init__(self, coeffs: list[int]):
        self.coeffs = list(coeffs)
        self.dcoeffs = derivative(self.coeffs)
        self.n = deg(coeffs)
        self.real: list[Iv] = []
        self.cplx: list[CIv] = []  # one per conjugate pair, imag > 0
        self._isolate()
        # levels[k]: the (real, cplx) enclosures of refinement level k
        self.levels = [(tuple(self.real), tuple(self.cplx))]

    # -- isolation ------------------------------------------------------------

    def _isolate(self):
        n = self.n
        if n == 1:
            self.real = [Iv.point(Fraction(-self.coeffs[0]))]
            return
        intervals = isolate_real_roots(self.coeffs)
        r1 = len(intervals)
        self.real = [self._tighten_real(Iv(a, b)) for a, b in intervals]
        r2 = (n - r1) // 2
        if r2 == 0:
            return
        for pad_exp in (30, 20, 12, 7, 4):
            if self._certify_complex(r2, Fraction(1, 2**pad_exp)):
                return
        raise PrecisionUnreachable("could not certify complex root boxes")

    def _tighten_real(self, box: Iv) -> Iv:
        # isolate_real_roots returns (a, b]; bisect on sign changes
        f = self.coeffs
        lo, hi = box.lo, box.hi
        flo = poly_eval(f, lo)
        fhi = poly_eval(f, hi)
        if flo == 0 or fhi == 0:
            # rational endpoint root is impossible for irreducible deg >= 2
            raise PrecisionUnreachable("rational root hit in isolation")
        while hi - lo > ISOLATION_WIDTH:
            mid = (lo + hi) / 2
            fm = poly_eval(f, mid)
            if fm == 0:
                raise PrecisionUnreachable("rational root hit in bisection")
            if (flo < 0) != (fm < 0):
                hi, fhi = mid, fm
            else:
                lo, flo = mid, fm
        return Iv(lo, hi)

    def _certify_complex(self, r2: int, pad: Fraction) -> bool:
        seeds = _durand_kerner(self.coeffs)
        upper = sorted((z for z in seeds if z.imag > 0),
                       key=lambda z: -z.imag)[:r2]
        if len(upper) < r2:
            return False
        upper.sort(key=lambda z: (z.real, z.imag))
        boxes = []
        for z in upper:
            re = Fraction(z.real)
            im = Fraction(z.imag)
            if im - pad <= 0:
                return False
            box = CIv(Iv(re - pad, re + pad), Iv(im - pad, im + pad))
            box = self._newton_certify(box)
            if box is None:
                return False
            boxes.append(box)
        # pairwise disjoint boxes (and disjoint from conjugates by imag > 0)
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                if boxes[i].re.overlaps(boxes[j].re) and \
                   boxes[i].im.overlaps(boxes[j].im):
                    return False
        self.cplx = boxes
        return True

    def _newton_certify(self, box: CIv):
        """Certify one simple root in box via N(box) strictly inside box."""
        for _ in range(NEWTON_TRIES):
            mid = CIv.point(box.re.mid, box.im.mid)
            fprime = eval_interval(self.dcoeffs, box)
            try:
                step = eval_interval(self.coeffs, mid) * fprime.inverse()
            except ZeroDivisionError:
                return None
            newton = mid - step
            if box.strictly_contains(newton):
                return newton
            try:
                box = box.intersect(newton)
            except ValueError:
                return None
        return None

    # -- refinement -------------------------------------------------------------

    def ensure_level(self, k: int):
        """The canonical level-k enclosures (every width <= 2^-k), as a
        (real, cplx) pair of tuples.

        Levels advance one at a time and every level's enclosures are kept,
        so the pair returned for level k is a pure function of the
        polynomial and k: callers that interleave requests at different
        precisions always see identical enclosures for a given level.
        Replayable bounds depend on this.
        """
        while len(self.levels) <= k:
            self.refine(Fraction(1, 2**len(self.levels)))
            self.levels.append((tuple(self.real), tuple(self.cplx)))
        return self.levels[k]

    def refine(self, width: Fraction):
        """Shrink every box to the requested width; boxes only ever nest."""
        for idx, box in enumerate(self.real):
            self.real[idx] = self._refine_real(box, width)
        for idx, box in enumerate(self.cplx):
            self.cplx[idx] = self._refine_cplx(box, width)

    def _refine_real(self, box: Iv, width: Fraction) -> Iv:
        f, df = self.coeffs, self.dcoeffs
        for _ in range(REFINE_STEPS):
            if box.width <= width:
                return box
            mid = box.mid
            fp = eval_interval(df, box)
            stepped = False
            if not fp.contains(0):
                newton = Iv.point(mid) - Iv.point(poly_eval(f, mid)) / fp
                try:
                    nxt = box.intersect(newton)
                    if nxt.width < box.width:
                        box = nxt
                        stepped = True
                except ValueError:
                    pass
            if not stepped:
                fm = poly_eval(f, mid)
                if fm == 0:
                    raise PrecisionUnreachable("rational root in refinement")
                flo = poly_eval(f, box.lo)
                if (flo < 0) != (fm < 0):
                    box = Iv(box.lo, mid)
                else:
                    box = Iv(mid, box.hi)
        if box.width <= width:
            return box
        raise PrecisionUnreachable(f"real box stuck at width {box.width}")

    def _refine_cplx(self, box: CIv, width: Fraction) -> CIv:
        for _ in range(REFINE_STEPS):
            if box.width <= width:
                return box
            mid = CIv.point(box.re.mid, box.im.mid)
            fprime = eval_interval(self.dcoeffs, box)
            try:
                newton = mid - eval_interval(self.coeffs, mid) * fprime.inverse()
            except ZeroDivisionError:
                raise PrecisionUnreachable("derivative box hit zero")
            try:
                box = box.intersect(newton)
            except ValueError:
                raise PrecisionUnreachable("newton step left the box")
        if box.width <= width:
            return box
        raise PrecisionUnreachable(f"complex box stuck at width {box.width}")
