"""The corner scan of m_exact against a reference loop.

minima._corner_scan takes the S-norm of rep + shift for each corner shift
of the basis cell from one multiplication matrix per representative, by
linearity, and yields the strict improvements. The reference loop here
builds every difference as a field element and calls s_norm on it.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from euclidmin import ideal_from_gens, m_exact, make_field, make_sconfig, s_norm
from euclidmin import minima
from euclidmin.minima import _corner_scan
from euclidmin.torus import orbit, torus_context


def reference_differences(ctx, rep):
    """rep plus each corner shift, in corner order, zero left out."""
    for corner in itertools.product((0, -1), repeat=ctx.field.degree):
        shift = ctx.field.zero()
        for c, b in zip(corner, ctx.basis):
            if c:
                shift = shift + b * c
        eta = rep + shift
        if not eta.is_zero():
            yield eta


def reference_scan(values, best):
    """The strict improvements on best among (eta, S-norm) pairs."""
    for eta, val in values:
        if best is None or val < best:
            best = val
            yield val, eta


def _units(field, gens):
    return None if gens is None else [field.from_power_basis(g) for g in gens]


# (polynomial, primes, place indices, unit generators in power-basis
# coordinates or None for the built-in ones, ideal generators or None for O,
# denominators of the seeded xi)
CASES = [
    ((-1, 1), [], None, None, None, (2, 3, 5, 7)),
    ((-1, 1), [2, 3], None, None, None, (5, 7, 10, 12)),
    ((-1, 1), [], None, None, [[F(1, 3)]], (2, 5, 7)),
    ((1, 0, 1), [], None, None, None, (2, 3, 5)),
    ((-2, 0, 1), [7], None, None, None, (2, 3)),
    ((-2, 0, 1), [7], None, None, [[F(1, 3), 0]], (2, 3)),
    ((1, 0, 1), [5], {5: [0]}, None, None, (3, 5, 10)),
    ((5, 0, 1), [], None, None, [[2, 0], [1, 1]], (2, 3, 5)),
    ((-1, -1, 0, 1), [], None, [[0, 1, 0]], None, (2, 3)),
    ((1, 1, 1, 1, 1), [], None, [[1, 1, 0, 0]], None, (2, 3)),
]
IDS = ["q", "q-s23", "q-third", "qi", "sqrt2-s7", "sqrt2-s7-third",
       "qi-s5-partial", "sqrtm5-class", "cubic", "zeta5"]


def _context(case):
    poly, primes, indices, units, ideal_gens, _ = case
    field = make_field(list(poly))
    sconfig = make_sconfig(field, primes, unit_gens=_units(field, units),
                           place_indices=indices)
    a = (field.maximal_order() if ideal_gens is None else
         ideal_from_gens([field.element(g) for g in ideal_gens]))
    return a, torus_context(a, sconfig)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_corner_scan_matches_reference(case, monkeypatch):
    a, ctx = _context(case)
    field = ctx.field
    computed = []
    tail = minima.s_norm_from_norm

    def recording_tail(fld, nums, den, nrm, sconfig):
        val = tail(fld, nums, den, nrm, sconfig)
        computed.append((fld.element([F(c, den) for c in nums]), val))
        return val

    monkeypatch.setattr(minima, "s_norm_from_norm", recording_tail)
    rng = random.Random(f"corner-scan:{field.coeffs}:{len(ctx.sconfig.places)}")
    reps = 0
    for _ in range(3):
        xi = field.element([F(rng.randint(-7, 7), rng.choice(case[-1]))
                            for _ in range(field.degree)])
        best = None
        # every representative of the orbit, the best carried over as in
        # m_exact_attained
        for rep in orbit(a, ctx.sconfig, xi):
            if rep.is_zero():
                continue
            reps += 1
            values = [(eta, s_norm(eta, ctx.sconfig))
                      for eta in reference_differences(ctx, rep)]
            computed.clear()
            assert (list(_corner_scan(ctx, rep, None))
                    == list(reference_scan(values, None)))
            # every value the scan computed, in corner order
            assert computed == values
            got = list(_corner_scan(ctx, rep, best))
            assert got == list(reference_scan(values, best))
            if got:
                best = got[-1][0]
    assert reps > 0


def test_corner_scan_ties_keep_the_first_corner(field_q, s_q_inf):
    ctx = torus_context(field_q.maximal_order(), s_q_inf)
    half = field_q.from_rational(F(1, 2))
    # both corners give 1/2: the first (shift 0) stands, the second does not
    assert list(_corner_scan(ctx, half, None)) == [(F(1, 2), half)]
    mv = m_exact(field_q.maximal_order(), s_q_inf, half)
    assert (mv.value, mv.attaining_shift) == (F(1, 2), field_q.zero())
