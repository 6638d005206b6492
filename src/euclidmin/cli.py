"""Command line front end: JSON configs in, replayable JSON reports out.

Every rational in a report is serialized as an exact "numerator/denominator"
string, so reports and certificates replay bit-for-bit. Timing lives in its
own section outside the content hash; identical configs and commands produce
byte-identical payloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
import time
from fractions import Fraction
from functools import cached_property

from .covering import BUDGET, CertEntry, CoverBox, CoveringCertificate, \
    verify_certificate
from .errors import EuclidMinError, IoError, ParseError, ValidationError
from .fields import ideal_from_gens, ideal_norm, make_field
from .places import SConfig, add_unit_basis, places_above, s_norm, s_places
from .qmath import int_str
from .torus import orbit, s_trace_dual, torus_context

# minima (search, covering loop, witness replay) and forms are imported only
# by the commands that use them

FORMAT_VERSION = 1

COMMANDS = ("info", "snorm", "m", "search", "cover", "M", "decide", "form",
            "orbit", "dual", "verify-cert")
_CANONICAL_RAT = re.compile(r"-?[0-9]+/[0-9]+")    # what rat_to_str writes


# -- rationals -----------------------------------------------------------------


def rat_to_str(q) -> str:
    q = Fraction(q)
    return f"{int_str(q.numerator)}/{int_str(q.denominator)}"


def str_to_rat(s, path="") -> Fraction:
    try:
        if type(s) is int:      # not a bool
            return Fraction(s)
        if isinstance(s, str):
            if _CANONICAL_RAT.fullmatch(s):     # without Fraction's grammar
                try:
                    return Fraction(*map(int, s.split("/")))
                except ValueError:      # past the int <-> str digit limit
                    return Fraction(*map(_long_int, s.split("/")))
            return Fraction(s)
    except (ValueError, ZeroDivisionError):
        pass
    raise ValidationError(f"not a rational: {s!r}", path)


def _long_int(s: str) -> int:
    """int(s) for s matching -?[0-9]+ past the int <-> str digit limit,
    read in chunks of digits below it."""
    digits = s.lstrip("-")
    width = sys.get_int_max_str_digits() or len(digits)
    out = 0
    for i in range(0, len(digits), width):
        part = digits[i:i + width]
        out = out * 10 ** len(part) + int(part)
    return -out if s[0] == "-" else out


def _positive_rat(s, path) -> Fraction:
    q = str_to_rat(s, path)
    if q <= 0:
        raise ValidationError(f"must be positive, got {s!r}", path)
    return q


def _positive_int(value, path) -> int:
    if type(value) is not int or value < 1:
        raise ValidationError(f"must be an integer >= 1, got {value!r}", path)
    return value


def _object(raw: dict, key: str) -> dict:
    """The JSON object under key, {} when the key is absent."""
    value = raw.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError("must be a JSON object", key)
    return value


def _element(field, vec, path):
    """The field element with the given coordinate list of a config."""
    if not isinstance(vec, list) or len(vec) != field.degree:
        raise ValidationError(
            f"must be a list of {field.degree} rationals", path)
    return field.element([str_to_rat(c, path) for c in vec])


def _list(value, path) -> list:
    if not isinstance(value, list):
        raise ValidationError("must be a list", path)
    return value


def coords_to_json(coords):
    return [rat_to_str(c) for c in coords]


# -- configuration --------------------------------------------------------------


class RunConfig:
    """Validated run configuration. S's places and the shape of its unit
    generators are checked on parsing, the S-unit basis on first use of
    sconfig, which a covering replay never makes."""

    def __init__(self, raw: dict):
        self.raw = raw
        if not isinstance(raw, dict):
            raise ValidationError("config must be a JSON object")
        field_spec = raw.get("field")
        if not isinstance(field_spec, dict) or "poly" not in field_spec:
            raise ValidationError("missing polynomial", "field.poly")
        poly = field_spec["poly"]
        if (not isinstance(poly, list) or not poly
                or not all(type(c) is int for c in poly)):
            raise ValidationError("poly must be a list of integers", "field.poly")
        try:
            self.field = make_field(poly)
        except EuclidMinError as exc:
            raise ValidationError(str(exc), "field.poly")
        prime_specs = _list(_object(raw, "S").get("primes", []), "S.primes")
        primes = []
        place_indices = {}
        for i, entry in enumerate(prime_specs):
            path = f"S.primes[{i}]"
            if isinstance(entry, dict) and "p" in entry:
                p = entry["p"]
            else:
                p = entry
            if type(p) is not int:
                raise ValidationError("prime entries are ints or {p, indices}",
                                      path)
            if p in primes:
                raise ValidationError(f"duplicate prime {p}", path)
            if isinstance(entry, dict) and "indices" in entry:
                place_indices[p] = self._place_indices(p, entry["indices"],
                                                       f"{path}.indices")
            primes.append(p)
        gens = _list(_object(raw, "units").get("gens") or [], "units.gens")
        self._unit_gens = [_element(self.field, vec, f"units.gens[{i}]")
                           for i, vec in enumerate(gens)] or None
        try:
            self.s_places = s_places(self.field, primes, place_indices)
        except EuclidMinError as exc:
            raise ValidationError(str(exc), "S")
        self.ideal = _parse_ideal(self.field, raw)
        params = _object(raw, "params")
        self.t = _positive_rat(params.get("t", 1), "params.t")
        self.gap = _positive_rat(params.get("gap", "1/100"), "params.gap")
        self.denom_bound = _positive_int(params.get("denom_bound", 20),
                                        "params.denom_bound")
        self.budget = _positive_int(params.get("budget", BUDGET), "params.budget")
        self.xi = None
        if "xi" in params:
            self.xi = _element(self.field, params["xi"], "params.xi")
        self.x = None
        if "x" in params:
            self.x = _element(self.field, params["x"], "params.x")
        self.point = None
        if "point" in params:
            point = params["point"]
            if not isinstance(point, list) or len(point) != 2:
                raise ValidationError("must be a list of 2 rationals",
                                      "params.point")
            self.point = tuple(str_to_rat(c, "params.point") for c in point)
        self.cert_path = params.get("cert_path")
        if self.cert_path is not None and not (
                isinstance(self.cert_path, str) and self.cert_path):
            raise ValidationError("must be a non-empty path string",
                                  "params.cert_path")

    def _place_indices(self, p, indices, path) -> list:
        """Indices into places_above(field, p): distinct and in range."""
        try:
            count = len(places_above(self.field, p))
        except EuclidMinError as exc:
            raise ValidationError(str(exc), "S")
        if (not isinstance(indices, list)
                or not all(type(k) is int and 0 <= k < count
                           for k in indices)
                or len(set(indices)) != len(indices)):
            raise ValidationError(
                f"must be a list of distinct place indices below {count}",
                path)
        return indices

    @cached_property
    def sconfig(self) -> SConfig:
        """s_places with its verified S-unit basis attached; a basis that
        does not verify is a ValidationError at S."""
        try:
            return add_unit_basis(self.s_places, self._unit_gens)
        except EuclidMinError as exc:
            raise ValidationError(str(exc), "S")

    def echo(self) -> dict:
        return self.raw


def _parse_ideal(field, raw: dict):
    """The ideal of a config (the unit ideal when none is given)."""
    ideal_spec = raw.get("ideal", {"gens": [[1] + [0] * (field.degree - 1)]})
    if not isinstance(ideal_spec, dict):
        raise ValidationError("must be a JSON object", "ideal")
    gens = [_element(field, vec, f"ideal.gens[{i}]") for i, vec in
            enumerate(_list(ideal_spec.get("gens", []), "ideal.gens"))]
    try:
        return ideal_from_gens(gens)
    except EuclidMinError as exc:
        raise ValidationError(str(exc), "ideal.gens")


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration."""
    try:
        raw = json.loads(text)
    except ValueError as exc:   # also an int past the int <-> str limit
        raise ParseError(f"malformed JSON: {exc}")
    return RunConfig(raw)


# -- serialization of evidence ---------------------------------------------------


def certificate_to_json(cert: CoveringCertificate) -> dict:
    return {
        "kind": "covering",
        "threshold": rat_to_str(cert.threshold),
        "ideal_hnf": [list(r) for r in cert.ideal_hnf],
        "ideal_den": cert.ideal_den,
        "entries": [
            {
                "box": {
                    "lo": coords_to_json(e.box.lo),
                    "hi": coords_to_json(e.box.hi),
                    "center": coords_to_json(e.box.center),
                    "exponents": list(e.box.exponents),
                },
                "gamma": coords_to_json(e.gamma_coords),
                "bound": rat_to_str(e.bound),
            }
            for e in cert.entries
        ],
    }


def _evidence_int(value) -> int:
    """An integer of evidence, read exactly: 1.7, 1.0, "1" and true are not."""
    if type(value) is not int:
        raise ValueError(f"not an integer: {value!r}")
    return value


def certificate_from_json(data: dict) -> CoveringCertificate:
    rats = {}   # each distinct rational string of this certificate, read once

    def rat(s):
        if type(s) is not str:
            return str_to_rat(s)
        q = rats.get(s)
        if q is None:
            q = rats[s] = str_to_rat(s)
        return q

    entries = []
    for e in data["entries"]:
        box = CoverBox(
            lo=tuple([rat(c) for c in e["box"]["lo"]]),
            hi=tuple([rat(c) for c in e["box"]["hi"]]),
            center=tuple([rat(c) for c in e["box"]["center"]]),
            exponents=tuple(map(_evidence_int, e["box"]["exponents"])),
        )
        entries.append(CertEntry(box, tuple([rat(c) for c in e["gamma"]]),
                                 rat(e["bound"])))
    return CoveringCertificate(
        threshold=rat(data["threshold"]),
        entries=tuple(entries),
        ideal_hnf=tuple(tuple(map(_evidence_int, row))
                        for row in data["ideal_hnf"]),
        ideal_den=_evidence_int(data["ideal_den"]))


def witness_to_json(xi, mv) -> dict:
    return {
        "kind": "witness",
        "xi": coords_to_json(xi.coords),
        "value": rat_to_str(mv.value),
        "shift": coords_to_json(mv.attaining_shift.coords),
    }


# -- commands ---------------------------------------------------------------------


def run_command(cfg: RunConfig, command: str) -> dict:
    """Execute one command; returns the report document (without timing)."""
    if command != "verify-cert":
        sconfig = cfg.sconfig   # any S-unit basis error comes before work
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}; "
                              f"choose from {', '.join(COMMANDS)}")
    field = cfg.field
    if command == "form" and field.degree != 2:
        raise ValidationError(f"form needs a quadratic field, not degree "
                              f"{field.degree}", "field.poly")
    doc = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "config": cfg.echo(),
        "result": {},
        "evidence": None,
        "effort": {},
        "exit_code": 0,
    }
    result = doc["result"]
    if command == "info":
        ctx = torus_context(cfg.ideal, sconfig)
        result.update({
            "degree": field.degree,
            "signature": list(field.signature),
            "discriminant": field.discriminant,
            "index": field.index,
            "integral_basis_power_coords": [coords_to_json(r)
                                            for r in field.basis_pb],
            "places": [repr(v) for v in sconfig.places],
            "ideal_hnf": [list(r) for r in ctx.a_part.hnf],
            "ideal_den": ctx.a_part.den,
            "s_norm_of_ideal": rat_to_str(ctx.s_norm_a),
            "unit_gens": [coords_to_json(u.coords) for u in sconfig.unit_gens],
            "torsion_order": sconfig.torsion[1] if sconfig.torsion else 1,
        })
    elif command == "snorm":
        if cfg.x is None:
            raise ValidationError("snorm needs params.x")
        result["s_norm"] = rat_to_str(s_norm(cfg.x, sconfig))
    elif command == "m":
        if cfg.xi is None:
            raise ValidationError("m needs params.xi")
        from .minima import m_exact
        mv = m_exact(cfg.ideal, sconfig, cfg.xi)
        result["value"] = rat_to_str(mv.value)
        result["attaining_shift"] = coords_to_json(mv.attaining_shift.coords)
        doc["evidence"] = witness_to_json(cfg.xi, mv)
    elif command == "search":
        from .minima import search_lower
        xi, mv, orb = search_lower(cfg.ideal, sconfig, cfg.denom_bound)
        result["witness"] = coords_to_json(xi.coords)
        result["value"] = rat_to_str(mv.value)
        result["witness_orbit_size"] = orb
        doc["evidence"] = witness_to_json(xi, mv)
    elif command == "cover":
        from .minima import covering_verify
        res = covering_verify(cfg.ideal, sconfig, cfg.t, budget=cfg.budget)
        result["threshold"] = rat_to_str(cfg.t)
        if isinstance(res, CoveringCertificate):
            result["covered"] = True
            result["boxes"] = len(res.entries)
            doc["evidence"] = certificate_to_json(res)
        else:
            result["covered"] = False
            result["surviving_boxes"] = len(res.boxes)
            doc["effort"]["processed"] = res.processed
            doc["exit_code"] = 2
            if res.witness is not None:
                # a class with minimum >= t: no covering at t can exist
                result["witness_value"] = rat_to_str(res.witness_minimum.value)
                doc["evidence"] = witness_to_json(res.witness,
                                                  res.witness_minimum)
    elif command == "M":
        from .minima import compute_M
        rep = compute_M(cfg.ideal, sconfig, cfg.gap, budget=cfg.budget)
        result["lower"] = rat_to_str(rep.lower)
        result["upper"] = rat_to_str(rep.upper) if rep.upper is not None else None
        result["witness"] = coords_to_json(rep.witness.coords)
        result["exact"] = rep.exact
        result["witness_orbit_size"] = rep.witness_orbit_size
        doc["effort"].update(rep.effort)
        evidence = {"witness": witness_to_json(rep.witness, rep.witness_minimum)}
        if rep.certificate is not None:
            evidence["certificate"] = certificate_to_json(rep.certificate)
        doc["evidence"] = evidence
        if rep.upper is None or rep.upper - rep.lower > cfg.gap:
            doc["exit_code"] = 2    # the budget ended before the gap closed
    elif command == "decide":
        from .minima import decide_norm_euclidean
        verdict = decide_norm_euclidean(cfg.ideal, sconfig, budget=cfg.budget)
        result["verdict"] = verdict.verdict
        doc["effort"].update(verdict.effort)
        if verdict.verdict == "euclidean":
            doc["evidence"] = certificate_to_json(verdict.certificate)
        elif verdict.verdict == "not_euclidean":
            doc["evidence"] = witness_to_json(verdict.witness,
                                              verdict.witness_minimum)
        else:
            doc["exit_code"] = 2
    elif command == "form":
        from .forms import form_from_ideal, m_form
        ctx = torus_context(cfg.ideal, sconfig)
        basis = ctx.a_part.basis_elements()
        form = form_from_ideal(ctx.a_part, (basis[0], basis[1]))
        result["form"] = [form.a, form.b, form.c]
        result["discriminant"] = form.disc
        result["primitive"] = form.is_primitive()
        if cfg.point is not None:
            result["point"] = [rat_to_str(c) for c in cfg.point]
            result["m_form"] = rat_to_str(m_form(form, cfg.point))
    elif command == "orbit":
        if cfg.xi is None:
            raise ValidationError("orbit needs params.xi")
        orb = orbit(cfg.ideal, sconfig, cfg.xi)
        result["size"] = len(orb)
        result["elements"] = [coords_to_json(o.coords) for o in orb]
    elif command == "dual":
        dual = s_trace_dual(cfg.ideal, sconfig)
        result["dual_hnf"] = [list(r) for r in dual.hnf]
        result["dual_den"] = dual.den
        result["dual_norm"] = rat_to_str(ideal_norm(dual))
    elif command == "verify-cert":
        if not cfg.cert_path:
            raise ValidationError("verify-cert needs --cert PATH")
        ok, detail = replay_report(cfg, cfg.cert_path)
        result["replay"] = "pass" if ok else "fail"
        result["detail"] = detail
        if not ok:
            doc["exit_code"] = 3
    return doc


def _config_mismatch(cfg: RunConfig, saved: dict):
    """Which of field, S, units and ideal of a saved config differ from cfg."""
    if not isinstance(saved, dict):
        return "report carries no config"
    for key, default in (("field", None), ("S", {}), ("units", None)):
        if saved.get(key, default) != cfg.raw.get(key, default):
            return f"report {key} differs from the given config"
    try:
        ideal = _parse_ideal(cfg.field, saved)
    except (EuclidMinError, TypeError, ValueError, AttributeError):
        return "report ideal does not parse under the given config"
    if (ideal.hnf, ideal.den) != (cfg.ideal.hnf, cfg.ideal.den):
        return "report ideal differs from the given config"
    return None


def _claim_mismatch(cfg: RunConfig, saved: dict, evidence: dict):
    """Whether a report's result claims more than, or other than, its
    evidence shows."""
    result = saved.get("result") or {}
    kind = evidence.get("kind")
    command = saved.get("command")
    if command == "decide":
        verdict = result.get("verdict")
        if verdict == "euclidean" and not (
                kind == "covering" and str_to_rat(evidence["threshold"]) <= 1):
            return "verdict euclidean needs a covering at threshold <= 1"
        if verdict == "not_euclidean" and not (
                kind == "witness" and str_to_rat(evidence["value"]) >= 1):
            return "verdict not_euclidean needs a witness with value >= 1"
        if verdict not in ("euclidean", "not_euclidean"):
            return f"verdict {verdict!r} carries evidence"
    elif command == "cover":
        t = str_to_rat(result.get("threshold"))
        if type(result.get("covered")) is not bool:
            return "covered must be a JSON boolean"
        if result.get("covered") is True and not (
                kind == "covering" and str_to_rat(evidence["threshold"]) <= t
                and type(result.get("boxes")) is int
                and result.get("boxes") == len(evidence["entries"])):
            return "covered needs a covering of that many boxes at t"
        if result.get("covered") is False and not (
                kind == "witness" and str_to_rat(evidence["value"]) >= t
                and result.get("witness_value") == evidence["value"]):
            return "not covered needs a witness with value >= the threshold"
    elif command == "m":
        xi = [rat_to_str(str_to_rat(c))
              for c in saved["config"]["params"]["xi"]]
        if (kind, xi, result.get("value"), result.get("attaining_shift")) != \
                ("witness", evidence["xi"], evidence["value"],
                 evidence["shift"]):
            return "value and attaining_shift must be the witness's at xi"
    elif command == "search":
        if (kind, result.get("value"), result.get("witness")) != \
                ("witness", evidence["value"], evidence["xi"]):
            return "value and witness must be the witness's"
    elif command == "M":
        witness, cert = evidence["witness"], evidence.get("certificate")
        if (result.get("lower"), result.get("witness")) != \
                (witness["value"], witness["xi"]):
            return "lower and witness must be the witness's value and xi"
        if result.get("upper") != (cert["threshold"] if cert else None):
            return "upper must be the certificate threshold"
        if result.get("exact") is not False:
            return "exact needs an isolation certificate; no report has one"
    else:
        return f"command {command!r} makes no evidence"
    if command in ("search", "M") and \
            type(result.get("witness_orbit_size")) is not int:
        # its value is checked where the witness's minimum is replayed
        return "witness_orbit_size must be an integer"
    return None


# what parsing a malformed report or its evidence can raise
_MALFORMED = (EuclidMinError, AttributeError, KeyError, TypeError, ValueError)


def replay_report(cfg: RunConfig, path: str):
    """Re-derive a report's evidence under the given config, and check that
    the report was made for that config and claims no more than it shows.
    Evidence that does not parse, or has the wrong shape, fails."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
    except OSError as exc:
        raise IoError(str(exc))
    except ValueError as exc:   # also an int past the int <-> str limit
        raise ParseError(f"malformed report: {exc}")
    if not isinstance(saved, dict):
        return False, "report is not a JSON object"
    if saved.get("content_hash") != content_hash(saved):
        return False, "content_hash does not match the report"
    mismatch = _config_mismatch(cfg, saved.get("config"))
    if mismatch:
        return False, mismatch
    evidence = saved.get("evidence")
    if evidence is None:
        return False, "report carries no evidence"
    try:
        claim = _claim_mismatch(cfg, saved, evidence)
    except _MALFORMED:
        claim = "report result does not parse"
    if claim:
        return False, claim
    field = cfg.field
    orbit_size = saved["result"].get("witness_orbit_size") \
        if saved.get("command") in ("search", "M") else None

    def replay_one(ev):
        try:
            kind = ev.get("kind")
            if kind == "covering":
                cert = certificate_from_json(ev)
            elif kind == "witness":
                xi, shift = [field.element([str_to_rat(c) for c in ev[key]])
                             for key in ("xi", "shift")]
                value = str_to_rat(ev["value"])
        except _MALFORMED as exc:
            return False, f"evidence does not parse: {exc!r}"
        if kind == "covering":
            # a covering claim runs on the places of S alone
            try:
                verify_certificate(torus_context(cfg.ideal, cfg.s_places),
                                   cert)
            except AssertionError as exc:
                return False, f"covering replay failed: {exc}"
            return True, f"covering certificate with {len(cert.entries)} boxes"
        if kind == "witness":
            from .minima import witness_mismatch
            mismatch = witness_mismatch(cfg.ideal, cfg.sconfig, xi, value,
                                        shift, orbit_size)
            if mismatch:
                return False, mismatch
            return True, "witness replayed"
        return False, f"unknown evidence kind {kind!r}"

    if "kind" in evidence:
        return replay_one(evidence)
    details = []
    for key, ev in sorted(evidence.items()):
        ok, detail = replay_one(ev)
        details.append(f"{key}: {detail}")
        if not ok:
            return False, "; ".join(details)
    return True, "; ".join(details)


# -- emission ----------------------------------------------------------------------


def canonical_payload_bytes(doc: dict) -> bytes:
    payload = {k: v for k, v in doc.items() if k != "timing"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def content_hash(doc: dict) -> str:
    """SHA-256 of the canonical payload: all but timing and the hash itself."""
    body = {k: v for k, v in doc.items() if k != "content_hash"}
    return hashlib.sha256(canonical_payload_bytes(body)).hexdigest()


def emit_report(doc: dict, path=None) -> bytes:
    """Serialize canonically (sorted keys, exact rationals); returns bytes."""
    body = dict(doc)
    body["content_hash"] = content_hash(doc)
    data = json.dumps(body, sort_keys=True, indent=1).encode() + b"\n"
    if path and path != "-":
        try:
            with open(path, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            raise IoError(str(exc))
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()
    return data


# -- entry point --------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit 1, like every other error; 2 means undecided."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_arg_parser():
    ap = _ArgumentParser(
        prog="euclidmin",
        description="Exact S-Euclidean minima, norm-Euclidean decisions, "
                    "and replayable covering certificates.")
    ap.add_argument("--config", required=True, help="JSON config path")
    ap.add_argument("--command", required=True, choices=COMMANDS)
    ap.add_argument("--t", help="covering threshold (rational, e.g. 21/100)")
    ap.add_argument("--gap", help="target gap for M (rational)")
    ap.add_argument("--denom-bound", type=int)
    ap.add_argument("--budget", type=int)
    ap.add_argument("--cert", help="report path for verify-cert")
    ap.add_argument("--output", help="report output path (default stdout)")
    return ap


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise IoError(f"cannot read config: {exc}")
        cfg = parse_config(text)
        if args.t is not None:
            cfg.t = _positive_rat(args.t, "--t")
        if args.gap is not None:
            cfg.gap = _positive_rat(args.gap, "--gap")
        if args.denom_bound is not None:
            cfg.denom_bound = _positive_int(args.denom_bound, "--denom-bound")
        if args.budget is not None:
            cfg.budget = _positive_int(args.budget, "--budget")
        if args.cert is not None:
            cfg.cert_path = args.cert
        doc = run_command(cfg, args.command)
    except EuclidMinError as exc:
        err_doc = {
            "format_version": FORMAT_VERSION,
            "command": args.command,
            "error": {"type": type(exc).__name__, "message": str(exc)},
            "exit_code": 1,
        }
        err_doc["timing"] = {"seconds": time.perf_counter() - started}
        emit_report(err_doc, args.output)
        return 1
    doc["timing"] = {"seconds": time.perf_counter() - started}
    emit_report(doc, args.output)
    return doc.get("exit_code", 0)


if __name__ == "__main__":
    sys.exit(main())
