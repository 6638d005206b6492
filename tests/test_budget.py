"""One budget for covering_verify, compute_M and decide_norm_euclidean.

One unit of budget pays for one covering box or one m_exact call. No run
spends more than its budget, and a run that a small budget cuts short
gives the answer of the default budget, or leaves it open: undecided, an
Unresolved covering, or a bracket that still contains the default run's
lower bound.
"""

import random
from fractions import Fraction as F

import pytest

from euclidmin import (CoveringCertificate, compute_M, covering_verify,
                       decide_norm_euclidean, make_field, make_sconfig)

# the fields and S of the pinned reports: (name, poly, primes, gap for M,
# threshold for a covering)
CONFIGS = (
    ("Z[1/6]", [-1, 1], [2, 3], F(1, 100), F(21, 100)),
    ("Q(i)", [1, 0, 1], [], F(1, 100), F(51, 100)),
    ("Z[sqrt-5]", [5, 0, 1], [], F(1, 10), F(1)),
    ("Q(sqrt2)", [-2, 0, 1], [], F(1, 10), F(3, 4)),
    ("Q(sqrt-3), S = {3}", [1, 1, 1], [3], F(1, 10), F(1, 2)),
)
BUDGETS = (1, 2, 3, 5, 50, 400, 3200)


def spent(effort):
    return effort["covering_boxes"] + effort["m_exact_calls"]


@pytest.mark.parametrize("name,poly,primes,gap,t", CONFIGS,
                         ids=[c[0] for c in CONFIGS])
def test_no_run_spends_past_its_budget(name, poly, primes, gap, t):
    field = make_field(poly)
    a, sconfig = field.maximal_order(), make_sconfig(field, primes)
    full_m = compute_M(a, sconfig, gap)
    full_d = decide_norm_euclidean(a, sconfig)
    full_c = covering_verify(a, sconfig, t)
    assert full_m.upper is not None and full_d.verdict != "undecided"
    draws = random.Random(f"budget:{name}").sample(range(4, 300), 6)
    for budget in BUDGETS + tuple(draws):
        rep = compute_M(a, sconfig, gap, budget=budget)
        assert spent(rep.effort) <= budget, ("M", budget)
        assert rep.lower <= full_m.lower, ("M", budget)
        assert rep.upper is None or full_m.lower <= rep.upper, ("M", budget)
        verdict = decide_norm_euclidean(a, sconfig, budget=budget)
        assert spent(verdict.effort) <= budget, ("decide", budget)
        assert verdict.verdict in (full_d.verdict, "undecided"), budget
        effort = {"covering_boxes": 0, "m_exact_calls": 0}
        res = covering_verify(a, sconfig, t, budget=budget, effort=effort)
        assert spent(effort) <= budget, ("cover", budget)
        if isinstance(res, CoveringCertificate):
            assert res == full_c, budget
        elif res.witness is not None:
            assert (res.witness, res.witness_minimum) == \
                (full_c.witness, full_c.witness_minimum), budget
