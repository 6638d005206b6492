"""Certificate replay keeps every verdict and every message.

For one certificate per case (Q with S = {2, 3}, Q(i) with S = {2}, the
class (2, 1 + sqrt -5), x^3 - x - 1 with unit theta, x^4 + x^3 + x^2 + x + 1
with unit 1 + zeta), the untampered certificate verifies, also after a trip
through its JSON, and each tamper raises AssertionError with the message
recorded below. The messages were recorded on a replay that re-derived
every bound as a Fraction, entry by entry; a message longer than 160
characters is recorded as its SHA-256 digest.
"""

import functools
import hashlib
import json
from fractions import Fraction as F

import pytest

from euclidmin import (CoveringCertificate, covering_verify, make_field,
                       make_sconfig, verify_certificate)
from euclidmin.cli import (certificate_from_json, certificate_to_json,
                           content_hash, main)
from euclidmin.fields import ideal_from_gens
from euclidmin.torus import torus_context

# name -> (poly, primes, unit generators, ideal generators, threshold)
CASES = {
    "Q_S23": ([-1, 1], [2, 3], None, None, F(21, 100)),
    "Qi_S2": ([1, 0, 1], [2], None, None, F(1, 4)),
    "class_m5": ([5, 0, 1], [], None, [[2, 0], [1, 1]], F(1)),
    "cubic": ([-1, -1, 0, 1], [], [[0, 1, 0]], None, F(1)),
    "zeta5": ([1, 1, 1, 1, 1], [], [[1, 1, 0, 0]], None, F(4)),
}


@functools.lru_cache(maxsize=None)
def _case(name):
    poly, primes, units, gens, t = CASES[name]
    field = make_field(poly)
    sconfig = make_sconfig(field, primes, units and [
        field.element([F(c) for c in u]) for u in units])
    ideal = field.maximal_order() if gens is None else ideal_from_gens(
        [field.element([F(c) for c in g]) for g in gens])
    cert = covering_verify(ideal, sconfig, t)
    assert isinstance(cert, CoveringCertificate)
    return torus_context(ideal, sconfig), cert


def _tampers(ctx, cert):
    """(name, certificate, requested threshold) per tamper."""
    entries = list(cert.entries)
    k = len(entries) // 2
    e = entries[k]
    box = e.box

    def put(i, entry):
        return cert._replace(entries=tuple(
            entries[:i] + [entry] + entries[i + 1:]))

    b = e.bound
    yield "bound_up", put(k, e._replace(bound=b + F(1, b.denominator))), None
    yield "bound_down", put(k, e._replace(bound=b - F(1, b.denominator))), None
    # 1/7 has a denominator at 7, which no case has in S
    yield "shift_outside", put(k, e._replace(gamma_coords=(
        e.gamma_coords[0] + F(1, 7),) + e.gamma_coords[1:])), None
    width = box.hi[0] - box.lo[0]
    step = width if box.hi[0] + width <= 1 else -width
    moved = box._replace(lo=(box.lo[0] + step,) + box.lo[1:],
                         hi=(box.hi[0] + step,) + box.hi[1:])
    yield "box_moved", put(k, e._replace(box=moved)), None
    yield "entry_dropped", cert._replace(
        entries=tuple(entries[:k] + entries[k + 1:])), None
    yield "entry_duplicated", cert._replace(entries=tuple(entries + [e])), None
    # a copy in place of another entry of the same volume and depths: the
    # measure stays exactly 1, and only disjointness fails
    j = next(i for i, f in enumerate(entries) if i != k
             and f.box.exponents == box.exponents
             and f.box.volume_fraction(ctx) == box.volume_fraction(ctx))
    yield "entry_copied", put(j, e), None
    # another class at a finite place where there is one, else a center
    # that is not integral
    deep = next((i for i, f in enumerate(entries) if any(f.box.exponents)),
                None)
    i, shift = (k, F(1, 2)) if deep is None else (deep, F(1))
    f = entries[i]
    yield "center_moved", put(i, f._replace(box=f.box._replace(center=(
        f.box.center[0] + shift,) + f.box.center[1:]))), None
    # the least depth that no certificate of this many entries reaches
    if box.exponents:
        yield "depth_forged", put(k, e._replace(box=box._replace(
            exponents=(len(entries),) + box.exponents[1:]))), None
    yield "threshold_requested", cert, cert.threshold - F(1, 100)
    yield "threshold_recorded", cert._replace(
        threshold=max(f.bound for f in entries)), None


def _message(exc) -> str:
    text = str(exc)
    if len(text) <= 160:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def _replay(ctx, cert, threshold):
    try:
        verify_certificate(ctx, cert, threshold)
    except AssertionError as exc:
        return _message(exc)
    return None


EXPECTED = {
    "Q_S23": {
        "bound_up":
            "bound 1/3 not below threshold 21/100",
        "bound_down":
            "bound replay mismatch: recorded 0, got 1/6",
        "shift_outside":
            "shift is not in the S-ideal",
        "box_moved":
            "bound replay mismatch: recorded 1/6, got 1/3",
        "entry_dropped":
            "boxes measure 23/24, expected exactly 1",
        "entry_duplicated":
            "boxes measure 25/24, expected exactly 1",
        "entry_copied":
            "overlapping boxes in certificate",
        "center_moved":
            "bound replay mismatch: recorded 1/8, got 1/12",
        "depth_forged":
            "finite depth 20 needs more than the 20 entries",
        "threshold_requested":
            "certificate threshold exceeds requested one",
        "threshold_recorded":
            "bound 5/24 not below threshold 5/24",
    },
    "Qi_S2": {
        "bound_up":
            "bound replay mismatch: recorded 15/64, got 29/128",
        "bound_down":
            "bound replay mismatch: recorded 7/32, got 29/128",
        "shift_outside":
            "shift is not in the S-ideal",
        "box_moved":
            "bound replay mismatch: recorded 29/128, got 5/16",
        "entry_dropped":
            "boxes measure 127/128, expected exactly 1",
        "entry_duplicated":
            "boxes measure 129/128, expected exactly 1",
        "entry_copied":
            "overlapping boxes in certificate",
        "center_moved":
            "bound replay mismatch: recorded 1/8, got 1/16",
        "depth_forged":
            "finite depth 64 needs more than the 64 entries",
        "threshold_requested":
            "certificate threshold exceeds requested one",
        "threshold_recorded":
            "bound 61/256 not below threshold 61/256",
    },
    "class_m5": {
        "bound_up":
            "sha256:60e016d4e0c3f1209cfce290577e166f4be7eb405cbf7a9b7a4b9fe98164164d",
        "bound_down":
            "sha256:372a6ed980291fd20e1e8269e407386b43b066eb3d35d2ae0144c608208d668a",
        "shift_outside":
            "shift is not in the S-ideal",
        "box_moved":
            "sha256:ace9a138f7e5a0dc9de182a7753d9e81892d0e60f41104f4fcd8741be7fb55be",
        "entry_dropped":
            "boxes measure 15/16, expected exactly 1",
        "entry_duplicated":
            "boxes measure 17/16, expected exactly 1",
        "entry_copied":
            "overlapping boxes in certificate",
        "center_moved":
            "box center is not integral",
        "threshold_requested":
            "certificate threshold exceeds requested one",
        "threshold_recorded":
            "sha256:f7a9f496622e366aca312429d681456efbd7b5da3712d7d149ec4f1a954fb9f5",
    },
    "cubic": {
        "bound_up":
            "sha256:b0fb3ef1b7cb36f45618b27bc7ab034633dbce0fa71f2c820170a00dfdcb7803",
        "bound_down":
            "sha256:d951ac47300383d407c5be996204722f06a9a552f1b77483d23fac1a523b3206",
        "shift_outside":
            "shift is not in the S-ideal",
        "box_moved":
            "sha256:f3ec1266dad006c5e2590047cfb20e8a7d35bfeca662f124f2f41a1d5e46de40",
        "entry_dropped":
            "boxes measure 31/32, expected exactly 1",
        "entry_duplicated":
            "boxes measure 33/32, expected exactly 1",
        "entry_copied":
            "overlapping boxes in certificate",
        "center_moved":
            "box center is not integral",
        "threshold_requested":
            "certificate threshold exceeds requested one",
        "threshold_recorded":
            "sha256:9d837996149392084b973c2ff874e59ba349e233f77a6f3f569fd205345360c3",
    },
    "zeta5": {
        "bound_up":
            "sha256:ea48e2f7e99253e86b61b07dbaa9e4b21d77ff164070101b54041095928b9341",
        "bound_down":
            "sha256:4c4c246134a53840b7b3d44a4127b08f1cec43d1936f1a71fe0886392a0af70f",
        "shift_outside":
            "shift is not in the S-ideal",
        "box_moved":
            "sha256:803ed897d377223d365e55fc0cec5a691cbbd5fe6ec4658cb780d1f470873f79",
        "entry_dropped":
            "boxes measure 15/16, expected exactly 1",
        "entry_duplicated":
            "boxes measure 17/16, expected exactly 1",
        "entry_copied":
            "overlapping boxes in certificate",
        "center_moved":
            "box center is not integral",
        "threshold_requested":
            "certificate threshold exceeds requested one",
        "threshold_recorded":
            "sha256:de0fc4b8fd9058d9d42ece4868fb64a0749089a53249a9c106987b1c62c0990c",
    },
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_untampered_certificates_verify(name):
    ctx, cert = _case(name)
    verify_certificate(ctx, cert)
    verify_certificate(ctx, cert, cert.threshold)
    again = certificate_from_json(json.loads(json.dumps(
        certificate_to_json(cert))))
    assert again == cert
    verify_certificate(ctx, again)


@pytest.mark.parametrize("name", sorted(CASES))
def test_tampers_give_the_recorded_messages(name):
    ctx, cert = _case(name)
    got = {}
    for tamper, bad, threshold in _tampers(ctx, cert):
        got[tamper] = _replay(ctx, bad, threshold)
        # the same message after the certificate's JSON
        parsed = certificate_from_json(json.loads(json.dumps(
            certificate_to_json(bad))))
        assert _replay(ctx, parsed, threshold) == got[tamper], tamper
    assert got == EXPECTED[name]


Z16 = {"field": {"poly": [-1, 1]}, "S": {"primes": [2, 3]},
       "ideal": {"gens": [[1]]}}

# (path in the evidence, edited value, verify-cert's exit code and detail)
PARSE_TAMPERS = (
    (("entries", 3, "box", "lo", 0), "x", 3,
     'evidence does not parse: ValidationError("not a rational: \'x\'")'),
    (("entries", 5, "bound"), "1/0", 3,
     'evidence does not parse: ValidationError("not a rational: \'1/0\'")'),
    (("entries", 7, "gamma", 0), [1], 3,
     "evidence does not parse: ValidationError('not a rational: [1]')"),
    (("entries", 2, "box", "center", 0), "1/2/3", 3,
     'evidence does not parse: ValidationError("not a rational: \'1/2/3\'")'),
    (("threshold",), "21/-100", 3,
     "report result does not parse"),
    # read, but not what the entry recorded
    (("entries", 9, "box", "hi", 0), 7, 3,
     "covering replay failed: box outside the fundamental parallelepiped"),
    # a depth that no certificate of 20 entries reaches, rejected before
    # any power of 2 is taken
    (("entries", 0, "box", "exponents", 0), 10**7, 3,
     "covering replay failed: finite depth 10000000 needs more than the "
     "20 entries"),
    # the same rational, written otherwise than rat_to_str writes it
    (("threshold",), "42/200", 0,
     "covering certificate with 20 boxes"),
)


def test_verify_cert_evidence_parse_details(tmp_path):
    cfg_path = tmp_path / "z16.json"
    cfg_path.write_text(json.dumps(Z16))
    out = tmp_path / "cover.json"
    assert main(["--config", str(cfg_path), "--command", "cover",
                 "--t", "21/100", "--output", str(out)]) == 0
    report = json.loads(out.read_text())

    def detail(doc):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(dict(doc, content_hash=content_hash(doc))))
        code = main(["--config", str(cfg_path), "--command", "verify-cert",
                     "--cert", str(path), "--output", str(tmp_path / "v.json")])
        result = json.loads((tmp_path / "v.json").read_text())["result"]
        return code, result["detail"]

    assert detail(report) == (0, "covering certificate with 20 boxes")
    for path, value, code, want in PARSE_TAMPERS:
        evidence = json.loads(json.dumps(report["evidence"]))
        node = evidence
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        assert detail(dict(report, evidence=evidence)) == (code, want), path
