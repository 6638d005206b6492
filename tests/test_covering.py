import random
from fractions import Fraction as F

import pytest

from euclidmin import (CoveringCertificate, Unresolved, covering_verify,
                       m_exact, make_sconfig, s_norm, verify_certificate)
from euclidmin.covering import CoverBox, box_bound, initial_box, split_finite
from euclidmin.minima import box_contains_rational
from euclidmin.torus import torus_context


def test_covering_easy(field_q, s_q_inf):
    Z = field_q.maximal_order()
    cert = covering_verify(Z, s_q_inf, F(3, 5), budget=2000)
    assert isinstance(cert, CoveringCertificate)
    ctx = torus_context(Z, s_q_inf)
    verify_certificate(ctx, cert)
    # monotonicity: the same certificate verifies at any larger threshold
    verify_certificate(ctx, cert, F(7, 10))
    verify_certificate(ctx, cert, F(2))


def test_covering_below_sup_stays_unresolved(field_q, s_q_inf):
    Z = field_q.maximal_order()
    res = covering_verify(Z, s_q_inf, F(2, 5), budget=400)
    assert isinstance(res, Unresolved)
    mids = [(b.lo[0] + b.hi[0]) / 2 for b in res.boxes]
    assert all(F(1, 4) < m < F(3, 4) for m in mids)


def test_covering_qi(field_qi, s_qi_inf):
    Oi = field_qi.maximal_order()
    cert = covering_verify(Oi, s_qi_inf, F(1), budget=20000)
    assert isinstance(cert, CoveringCertificate)
    verify_certificate(torus_context(Oi, s_qi_inf), cert)


def test_covering_with_finite_places(field_q, s_q_23):
    Z = field_q.maximal_order()
    cert = covering_verify(Z, s_q_23, F(21, 100), budget=60000)
    assert isinstance(cert, CoveringCertificate)
    ctx = torus_context(Z, s_q_23)
    verify_certificate(ctx, cert)
    verify_certificate(ctx, cert, F(22, 100))


def test_covering_sampling_soundness(field_q, s_q_23):
    Z = field_q.maximal_order()
    ctx = torus_context(Z, s_q_23)
    cert = covering_verify(Z, s_q_23, F(21, 100), budget=60000)
    rng = random.Random(2024)
    for _ in range(300):
        q = rng.choice([1, 5, 7, 11, 13, 25, 35, 49])
        x = field_q.from_rational(F(rng.randrange(q), q))
        hits = [e for e in cert.entries if box_contains_rational(ctx, e.box, x)]
        assert len(hits) == 1
        gamma = field_q.element(hits[0].gamma_coords)
        val = s_norm(x - gamma, s_q_23) / ctx.s_norm_a
        assert val < F(21, 100) and val <= hits[0].bound


def test_box_contains_rational_needs_integrality_at_s(field_q, s_q_23,
                                                     field_qi):
    """A box holds only points integral at every finite place of S, also
    at depth 0, where it holds every class of the local integers."""
    ctx = torus_context(field_q.maximal_order(), s_q_23)
    box = initial_box(ctx)
    for q, inside in ((F(1, 2), False), (F(1, 3), False), (F(5, 6), False),
                      (F(1, 5), True)):
        assert box_contains_rational(ctx, box, field_q.from_rational(q)) \
            is inside
    # the children of a split at 2 keep depth 0 at 3: 1/3 lies in none of
    # them, 1/5 in exactly one
    children = split_finite(ctx, box, 0)
    for q, hits in ((F(1, 3), 0), (F(1, 5), 1)):
        x = field_q.from_rational(q)
        assert sum(box_contains_rational(ctx, c, x) for c in children) == hits
    ctx = torus_context(field_qi.maximal_order(), make_sconfig(field_qi, [2]))
    box = initial_box(ctx)
    assert not box_contains_rational(ctx, box,
                                     field_qi.element([F(1, 2), F(1, 2)]))
    assert box_contains_rational(ctx, box,
                                 field_qi.element([F(1, 5), F(2, 5)]))


def test_tampered_certificates_rejected(field_q, s_q_23):
    Z = field_q.maximal_order()
    ctx = torus_context(Z, s_q_23)
    cert = covering_verify(Z, s_q_23, F(21, 100), budget=60000)
    entries = list(cert.entries)
    e0 = entries[0]

    def rejected(c):
        with pytest.raises(AssertionError):
            verify_certificate(ctx, c)

    rejected(cert._replace(entries=tuple([e0._replace(bound=e0.bound / 2)]
                                         + entries[1:])))
    rejected(cert._replace(entries=tuple([e0._replace(
        gamma_coords=(e0.gamma_coords[0] + 1,))] + entries[1:])))
    b = e0.box
    moved = CoverBox((b.lo[0] + F(1, 64),), b.hi, b.center, b.exponents)
    rejected(cert._replace(
        entries=tuple([e0._replace(box=moved)] + entries[1:])))
    longer = b._replace(center=b.center + (F(0),))
    rejected(cert._replace(entries=tuple([e0._replace(box=longer)]
                                         + entries[1:])))
    rejected(cert._replace(entries=tuple(entries[1:])))
    # duplicate box breaks disjointness even though the measure grows
    rejected(cert._replace(entries=tuple(entries + [e0])))


def test_covering_resume(field_qi, s_qi_inf):
    Oi = field_qi.maximal_order()
    partial = covering_verify(Oi, s_qi_inf, F(51, 100), budget=2)
    assert isinstance(partial, Unresolved)
    done = covering_verify(Oi, s_qi_inf, F(51, 100), budget=20000,
                           resume=partial.state)
    assert isinstance(done, CoveringCertificate)
    verify_certificate(torus_context(Oi, s_qi_inf), done)


def test_box_bound_replay_determinism(field_q, s_q_23):
    Z = field_q.maximal_order()
    ctx = torus_context(Z, s_q_23)
    cert = covering_verify(Z, s_q_23, F(21, 100), budget=60000)
    for entry in cert.entries[:5]:
        gamma = field_q.element(entry.gamma_coords)
        assert box_bound(ctx, entry.box, gamma) == entry.bound


def test_covering_below_minimum_returns_witness(field_q, s_q_23):
    Z = field_q.maximal_order()
    res = covering_verify(Z, s_q_23, F(19, 100), budget=1500)
    assert isinstance(res, Unresolved)
    assert res.witness_minimum.value == F(1, 5)
    assert res.processed <= 200
    # the witness replays, and the state still resumes the covering
    assert m_exact(Z, s_q_23, res.witness).value == F(1, 5)
    assert len(res.state.boxes) == len(res.boxes)


def test_covering_witness_schedule_independent(field_q, s_q_23):
    Z = field_q.maximal_order()
    res = covering_verify(Z, s_q_23, F(1, 8), budget=400)
    assert isinstance(res, Unresolved)
    assert res.witness_minimum.value >= F(1, 8)
    assert m_exact(Z, s_q_23, res.witness) == res.witness_minimum


def _fresh_python(script, *flags):
    """Run a script in a new interpreter that imports this euclidmin."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import euclidmin

    src = str(Path(euclidmin.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, timeout=120)


def test_threshold_check_survives_optimize():
    # `python -O` strips assert statements; the input checks must still run
    script = (
        "from euclidmin import covering_verify, make_field, make_sconfig\n"
        "field = make_field([-1, 1])\n"
        "sconfig = make_sconfig(field, [2, 3])\n"
        "try:\n"
        "    covering_verify(field.maximal_order(), sconfig, 0, budget=5)\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n")
    done = _fresh_python(script, "-O")
    assert done.returncode == 0, done.stderr.decode()


def test_finer_embed_leaves_bounds_replayable(tmp_path, field_sqrt2,
                                              s_sqrt2_inf):
    # an embed at a fine width refines the roots past the level the
    # recorded bounds use; the bounds must not change, or a fresh process
    # cannot replay the certificate
    import json

    from euclidmin.cli import certificate_to_json
    from euclidmin.fields import embed

    embed(field_sqrt2.element([0, 1]), F(1, 2**60))
    cert = covering_verify(field_sqrt2.maximal_order(), s_sqrt2_inf, F(3, 4))
    assert isinstance(cert, CoveringCertificate)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(certificate_to_json(cert)))
    script = (
        "import json\n"
        "from euclidmin import make_field, make_sconfig, verify_certificate\n"
        "from euclidmin.cli import certificate_from_json\n"
        "from euclidmin.torus import torus_context\n"
        "field = make_field([-2, 0, 1])\n"
        "ctx = torus_context(field.maximal_order(), make_sconfig(field, []))\n"
        f"cert = certificate_from_json(json.loads(open({str(path)!r}).read()))\n"
        "verify_certificate(ctx, cert)\n")
    done = _fresh_python(script)
    assert done.returncode == 0, done.stderr.decode()
