"""Process-pool plumbing for parallel covering verification.

Workers receive a picklable description of the field, the S-configuration,
the ideal, and the threshold, rebuild the immutable context once per
process, and then certify or reject boxes independently. Results are
order-canonicalized by the caller, so the outcome is schedule-independent.
"""

from __future__ import annotations

from fractions import Fraction

_CTX = None
_T = None


def worker_payload(a, sconfig, t):
    return {
        "coeffs": list(a.field.coeffs),
        "places": [(v.p, tuple(v.gen_poly), v.e, v.f)
                   for v in sconfig.finite_places],
        "unit_gens": [tuple(u.coords) for u in sconfig.unit_gens],
        "torsion": (tuple(sconfig.torsion[0].coords), sconfig.torsion[1])
        if sconfig.torsion else None,
        "ideal": ([list(r) for r in a.hnf], a.den),
        "t": t,
    }


def init_worker(payload):
    global _CTX, _T
    from .fields import FractionalIdeal, make_field
    from .places import Place, SConfig
    from .torus import torus_context

    field = make_field(payload["coeffs"])
    places = [Place(field, "finite", p=p, gen_poly=g, e=e, f=f)
              for p, g, e, f in payload["places"]]
    gens = [field.element(c) for c in payload["unit_gens"]]
    torsion = None
    if payload["torsion"]:
        torsion = (field.element(payload["torsion"][0]), payload["torsion"][1])
    sconfig = SConfig(field, places, unit_gens=gens, torsion=torsion,
                      verified=True)
    hnf, den = payload["ideal"]
    ideal = FractionalIdeal(field, hnf, den)
    _CTX = torus_context(ideal, sconfig)
    _T = Fraction(payload["t"])


def certify_box_task(box):
    from .minima import _certify_box

    return _certify_box(_CTX, box, _T)
