import json
import sys
from fractions import Fraction as F
from unittest.mock import ANY

import pytest

from euclidmin import ParseError, ValidationError
from euclidmin.cli import (certificate_from_json, certificate_to_json,
                           content_hash, emit_report, main, parse_config,
                           rat_to_str, run_command, str_to_rat)
from test_covering import _fresh_python


def make_cfg(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


QI = {"field": {"poly": [1, 0, 1]}, "S": {"primes": []},
      "ideal": {"gens": [[1, 0]]}}
Z16 = {"field": {"poly": [-1, 1]}, "S": {"primes": [2, 3]},
       "ideal": {"gens": [[1]]}}


def test_str_to_rat_is_fraction_of_the_string():
    # canonical strings take the fast path, every other one Fraction's
    for s in ("1/2", "-3/4", "2/4", "-0/3", "0/1", "00012/0006",
              "-123456789012345678901234567890/1099511627776", " 1/2",
              "1/2 ", "1.5", "-7", "+1/2", "1e3", "1_000/3", "\u0661/2"):
        got = str_to_rat(s)
        assert type(got) is F and got == F(s), s
    assert str_to_rat(5) == F(5)
    for bad in ("1/0", "-3/00", "x", "", "1/-2", "1//2", "1/2/3", None, 1.5,
                [1, 2], True, False):
        with pytest.raises(ValidationError):
            str_to_rat(bad)


def test_rat_strings_beyond_the_int_str_limit():
    # 5,000-digit parts exceed the interpreter's default int <-> str limit
    q = F(-(10**5000 + 1), 3**10500)
    s = rat_to_str(q)
    assert str_to_rat(s) == q
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert s == f"{q.numerator}/{q.denominator}"
    finally:
        sys.set_int_max_str_digits(limit)


def test_rat_strings_past_a_lowered_int_str_limit():
    # the digits past the limit are read in chunks below whatever it is
    q = F(-(7**2400 + 5), 10**1999 + 3)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert str_to_rat(rat_to_str(q)) == q
    finally:
        sys.set_int_max_str_digits(limit)


def test_json_integers_past_the_int_str_limit(tmp_path):
    # configs and reports with such integers are malformed, not a crash
    with pytest.raises(ParseError):
        parse_config('{"field": {"poly": [' + "1" * 5000 + ', 1]}}')
    report = tmp_path / "report.json"
    report.write_text('{"ideal_den": ' + "1" * 5000 + '}')
    out = tmp_path / "verify.json"
    code = main(["--config", make_cfg(tmp_path, "qi.json", QI),
                 "--command", "verify-cert", "--cert", str(report),
                 "--output", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["error"]["type"] == "ParseError"


def test_parse_config_examples():
    cfg = parse_config(json.dumps(QI))
    assert cfg.field.degree == 2 and cfg.sconfig.size == 1
    cfg = parse_config(json.dumps(Z16))
    assert cfg.field.degree == 1 and cfg.sconfig.size == 3
    assert cfg.gap == F(1, 100) and cfg.denom_bound == 20


def test_parse_config_errors():
    with pytest.raises(ParseError):
        parse_config("{not json")
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps({"field": {"poly": [-4, 0, 1]},
                                 "S": {"primes": []},
                                 "ideal": {"gens": [[1, 0]]}}))
    assert "field.poly" in str(err.value)
    with pytest.raises(ValidationError) as err:
        parse_config(json.dumps({"field": {"poly": [-1, 1]},
                                 "S": {"primes": [2, 2]},
                                 "ideal": {"gens": [[1]]}}))
    assert "S.primes[1]" in str(err.value)
    for key, value, path in (("S", [2, 3], "S"), ("units", [], "units"),
                             ("params", {"budget": 1.5}, "params.budget"),
                             ("params", {"budget": True}, "params.budget"),
                             ("params", {"denom_bound": 0},
                              "params.denom_bound"),
                             ("params", {"t": "0"}, "params.t"),
                             ("params", {"gap": "-1/100"}, "params.gap"),
                             ("units", {"gens": 5}, "units.gens"),
                             ("units", {"gens": [["1/2", "3"]]},
                              "units.gens[0]"),
                             ("ideal", {"gens": 5}, "ideal.gens"),
                             ("S", {"primes": [{"p": 5, "indices": 0}]},
                              "S.primes[0].indices"),
                             ("S", {"primes": [{"p": 5, "indices": [0, 0]}]},
                              "S.primes[0].indices"),
                             ("S", {"primes": [{"p": 5, "indices": [1]}]},
                              "S.primes[0].indices"),
                             ("S", {"primes": ["5"]}, "S.primes[0]"),
                             ("params", {"xi": ["1/5", "1/3"]}, "params.xi"),
                             ("params", {"x": "1/5"}, "params.x"),
                             ("params", {"point": ["1/2"]}, "params.point"),
                             # booleans are not numbers
                             ("field", {"poly": [True, 0, True]},
                              "field.poly"),
                             ("params", {"t": True}, "params.t"),
                             ("params", {"xi": [False]}, "params.xi"),
                             ("params", {"cert_path": 1}, "params.cert_path"),
                             ("params", {"cert_path": ["a"]},
                              "params.cert_path"),
                             ("params", {"cert_path": ""},
                              "params.cert_path")):
        with pytest.raises(ValidationError) as err:
            parse_config(json.dumps(dict(Z16, **{key: value})))
        assert path in str(err.value)


def test_run_command_m_and_snorm():
    raw = dict(Z16)
    raw["params"] = {"xi": ["1/5"], "x": ["1/5"]}
    cfg = parse_config(json.dumps(raw))
    doc = run_command(cfg, "m")
    assert doc["result"]["value"] == "1/5"
    doc = run_command(cfg, "snorm")
    assert doc["result"]["s_norm"] == "1/5"
    # 1/2 is an S-integer for S = {inf, 2, 3}, so its minimum vanishes
    raw["params"] = {"xi": ["1/2"]}
    cfg = parse_config(json.dumps(raw))
    assert run_command(cfg, "m")["result"]["value"] == "0/1"


def test_info_and_orbit_use_the_fundamental_unit():
    # Q(sqrt61) as x^2 - x - 15: the unit is 17 + 5*theta, not its cube
    # 25913 + 7610*theta, and theta/2 has an orbit of three points under it
    raw = {"field": {"poly": [-15, -1, 1]}, "S": {"primes": []},
           "ideal": {"gens": [[1, 0]]}, "params": {"xi": ["0", "1/2"]}}
    cfg = parse_config(json.dumps(raw))
    assert run_command(cfg, "info")["result"]["unit_gens"] == [["17/1", "5/1"]]
    assert run_command(cfg, "orbit")["result"]["size"] == 3


def test_report_round_trip_and_determinism(tmp_path):
    cfg = parse_config(json.dumps(Z16))
    doc = run_command(cfg, "info")
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    b1 = emit_report(dict(doc), str(p1))
    b2 = emit_report(dict(doc), str(p2))
    assert b1 == b2
    parsed = json.loads(p1.read_text())
    clean = {k: v for k, v in parsed.items() if k != "content_hash"}
    assert clean == doc


def test_certificate_serialization_round_trip(field_q, s_q_23):
    from euclidmin import covering_verify

    Z = field_q.maximal_order()
    cert = covering_verify(Z, s_q_23, F(21, 100), budget=60000)
    data = certificate_to_json(cert)
    again = certificate_from_json(json.loads(json.dumps(data)))
    assert again == cert


def test_cli_end_to_end(tmp_path, capsys):
    cfg_path = make_cfg(tmp_path, "qi.json", QI)
    out = tmp_path / "decide.json"
    code = main(["--config", cfg_path, "--command", "decide",
                 "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["verdict"] == "euclidean"
    # replay the certificate
    vout = tmp_path / "verify.json"
    code = main(["--config", cfg_path, "--command", "verify-cert",
                 "--cert", str(out), "--output", str(vout)])
    assert code == 0
    assert json.loads(vout.read_text())["result"]["replay"] == "pass"
    # tampering any single bound must be caught, even under a fresh hash
    doc["evidence"]["entries"][0]["bound"] = "1/100"
    doc["content_hash"] = content_hash(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = main(["--config", cfg_path, "--command", "verify-cert",
                 "--cert", str(bad), "--output", str(vout)])
    assert code == 3
    # a bound of 5,000 digits parses, and fails its replay
    doc["evidence"]["entries"][0]["bound"] = rat_to_str(
        F(10**5000, 10**5000 + 1))
    doc["content_hash"] = content_hash(doc)
    bad.write_text(json.dumps(doc))
    code = main(["--config", cfg_path, "--command", "verify-cert",
                 "--cert", str(bad), "--output", str(vout)])
    assert code == 3
    assert json.loads(vout.read_text())["result"]["detail"].startswith(
        "covering replay failed: bound replay mismatch: recorded 1000")


def test_cli_cover_undecided_exit(tmp_path):
    cfg_path = make_cfg(tmp_path, "z16.json", Z16)
    out = tmp_path / "cover.json"
    code = main(["--config", cfg_path, "--command", "cover",
                 "--t", "19/100", "--budget", "200", "--output", str(out)])
    assert code == 2
    assert json.loads(out.read_text())["result"]["covered"] is False


def test_cli_error_exit(tmp_path):
    bad = make_cfg(tmp_path, "bad.json",
                   {"field": {"poly": [-4, 0, 1]}, "S": {"primes": []},
                    "ideal": {"gens": [[1, 0]]}})
    out = tmp_path / "err.json"
    code = main(["--config", bad, "--command", "info", "--output", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["error"]["type"] == "ValidationError"


def test_cli_rejects_cert_path_that_is_not_a_path(tmp_path):
    # 1 would otherwise be opened as a file descriptor
    for cert_path in (1, ["a"]):
        cfg = make_cfg(tmp_path, "cfg.json",
                       dict(Z16, params={"cert_path": cert_path}))
        out = tmp_path / "err.json"
        code = main(["--config", cfg, "--command", "verify-cert",
                     "--output", str(out)])
        error = json.loads(out.read_text())["error"]
        assert code == 1 and error["type"] == "ValidationError"
        assert "params.cert_path" in error["message"]


def test_cli_form_rejects_degree_one(tmp_path):
    cfg_path = make_cfg(tmp_path, "z16.json", Z16)
    out = tmp_path / "err.json"
    assert main(["--config", cfg_path, "--command", "form",
                 "--output", str(out)]) == 1
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ValidationError" and "field.poly" in \
        error["message"]


def test_cli_rejects_nonpositive_threshold(tmp_path):
    cfg_path = make_cfg(tmp_path, "z16.json", Z16)
    out = tmp_path / "err.json"
    assert main(["--config", cfg_path, "--command", "cover", "--t", "0",
                 "--output", str(out)]) == 1
    error = json.loads(out.read_text())["error"]
    assert error["type"] == "ValidationError" and "--t" in error["message"]


def test_cli_payload_byte_identical(tmp_path):
    cfg_path = make_cfg(tmp_path, "z16.json", Z16)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["--config", cfg_path, "--command", "cover",
                     "--t", "21/100", "--output", str(out)]) == 0
        outs.append(json.loads(out.read_text()))
    h1, h2 = (d["content_hash"] for d in outs)
    assert h1 == h2
    p1 = {k: v for k, v in outs[0].items() if k != "timing"}
    p2 = {k: v for k, v in outs[1].items() if k != "timing"}
    assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)


ZM5 = {"field": {"poly": [5, 0, 1]}, "S": {"primes": []},
       "ideal": {"gens": [[1, 0]]}}


def replay_code(tmp_path, cfg_path, report, restamp=True):
    """verify-cert's exit code on a report, by default with its
    content_hash recomputed so that the edit itself is what is checked."""
    if restamp:
        report = dict(report, content_hash=content_hash(report))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(report))
    return main(["--config", cfg_path, "--command", "verify-cert",
                 "--cert", str(path), "--output", str(tmp_path / "v.json")])


def test_cli_cover_witness_evidence(tmp_path):
    cfg_path = make_cfg(tmp_path, "z16.json", Z16)
    out = tmp_path / "cover.json"
    code = main(["--config", cfg_path, "--command", "cover",
                 "--t", "19/100", "--budget", "1500", "--output", str(out)])
    assert code == 2
    doc = json.loads(out.read_text())
    assert doc["result"]["covered"] is False
    assert doc["result"]["witness_value"] == "1/5"
    assert doc["evidence"]["kind"] == "witness"
    assert replay_code(tmp_path, cfg_path, doc) == 0
    edited = json.loads(out.read_text())
    edited["result"]["covered"] = True
    assert replay_code(tmp_path, cfg_path, edited) == 3
    edited = json.loads(out.read_text())
    edited["result"]["threshold"] = "21/100"
    assert replay_code(tmp_path, cfg_path, edited) == 3


def test_verify_cert_rejects_edited_verdict(tmp_path):
    cfg_path = make_cfg(tmp_path, "zm5.json", ZM5)
    out = tmp_path / "decide.json"
    assert main(["--config", cfg_path, "--command", "decide",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["verdict"] == "not_euclidean"
    assert replay_code(tmp_path, cfg_path, doc) == 0
    doc["result"]["verdict"] = "euclidean"
    assert replay_code(tmp_path, cfg_path, doc) == 3


def test_verify_cert_uses_given_config(tmp_path):
    cfg_path = make_cfg(tmp_path, "zm5.json", ZM5)
    out = tmp_path / "decide.json"
    assert main(["--config", cfg_path, "--command", "decide",
                 "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    qi_path = make_cfg(tmp_path, "qi.json", QI)
    assert replay_code(tmp_path, qi_path, doc) == 3
    vout = json.loads((tmp_path / "v.json").read_text())
    assert vout["result"]["replay"] == "fail"
    # the same ideal given by other generators is the same config
    same = dict(ZM5, ideal={"gens": [[-1, 0]]})
    assert replay_code(tmp_path, make_cfg(tmp_path, "same.json", same),
                       doc) == 0


def test_cli_usage_errors_exit_1(tmp_path, capsys):
    # argparse would exit 2, which this command line reserves for undecided
    cfg_path = make_cfg(tmp_path, "z16.json", Z16)
    for argv in (["--config", cfg_path, "--command", "info", "--budget", "abc"],
                 ["--config", cfg_path, "--command", "info", "--workers", "2"],
                 ["--config", cfg_path, "--command", "nope"],
                 ["--command", "info"]):
        with pytest.raises(SystemExit) as stop:
            main(argv)
        assert stop.value.code == 1, argv
    assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0


# Reports that carry evidence: name -> (config, command, flags)
EVIDENCE_REPORTS = {
    "m": (dict(Z16, params={"xi": ["1/5"]}), "m", []),
    "search": (Z16, "search", ["--denom-bound", "6"]),
    "search-1": (Z16, "search", ["--denom-bound", "1"]),
    "cover": (Z16, "cover", ["--t", "21/100"]),
    "cover-witness": (Z16, "cover", ["--t", "19/100", "--budget", "1500"]),
    "M": (Z16, "M", ["--gap", "1/10"]),
    "M-uncertified": (Z16, "M", ["--gap", "1/10", "--budget", "1"]),
    "decide-euclidean": (QI, "decide", []),
    "decide-not": (ZM5, "decide", []),
}

# DROP as an edited value deletes the key
DROP = object()

# (report, result field, edited value): every field verify-cert checks
TAMPERS = (
    ("m", "value", "1/7"),
    ("m", "attaining_shift", ["123/1"]),
    ("search", "value", "1/7"),
    ("search", "witness", ["1/7"]),
    ("search", "witness_orbit_size", 5),
    ("search", "witness_orbit_size", "4"),
    ("search", "witness_orbit_size", DROP),
    ("search-1", "witness_orbit_size", True),
    ("cover", "threshold", "1/100"),
    ("cover", "covered", False),
    ("cover", "boxes", 1),
    ("cover", "covered", DROP),
    ("cover", "covered", "true"),
    ("cover-witness", "covered", True),
    ("cover-witness", "covered", DROP),
    ("cover-witness", "threshold", "21/100"),
    ("cover-witness", "witness_value", "1/6"),
    ("M", "lower", "1/7"),
    ("M", "witness", ["1/7"]),
    ("M", "upper", "1/3"),
    ("M", "upper", None),
    ("M", "exact", True),
    ("M", "witness_orbit_size", 1),
    ("M", "witness_orbit_size", DROP),
    ("M-uncertified", "witness_orbit_size", 2),
    ("M-uncertified", "upper", "1/3"),
    ("decide-euclidean", "verdict", "not_euclidean"),
    ("decide-euclidean", "verdict", "undecided"),
    ("decide-not", "verdict", "euclidean"),
)

# (report, path into its evidence, edited value): malformed evidence
EVIDENCE_TAMPERS = (
    ("cover", ("entries", 0, "gamma"), ["0", "0"]),
    ("cover", ("entries", 0, "gamma"), DROP),
    ("cover", ("entries", 0, "box", "exponents", 0), "a"),
    # integers are read exactly: 1.7 and true are not the exponent 1
    ("cover", ("entries", 0, "box", "exponents", 0), 1.7),
    ("cover", ("entries", 0, "box", "exponents", 0), True),
    # a depth that no 20-entry certificate reaches: rejected at once
    ("cover", ("entries", 0, "box", "exponents", 0), 10**7),
    ("cover", ("ideal_den",), 1.0),
    ("cover", ("entries", 0, "box", "lo", 0), "x"),
    ("cover", ("entries",), DROP),
    ("cover", ("ideal_den",), "x"),
    ("M", ("certificate", "entries", 0, "gamma"), ["0", "0"]),
    ("M", ("certificate", "entries", 0, "gamma"), DROP),
    ("M", ("certificate", "entries", 0, "box", "exponents", 0), "a"),
    ("M", ("certificate", "entries"), DROP),
    ("M", ("certificate", "ideal_den"), "x"),
    ("M", ("witness", "shift"), ["0", "0"]),
    ("M", ("witness", "shift"), DROP),
    ("m", ("xi",), "x"),
    ("decide-euclidean", ("entries", 0, "gamma"), ["0"]),
    ("decide-not", ("shift",), ["0"]),
)


def edit_evidence(report, path, value):
    """A copy of the report with the evidence entry at path replaced."""
    evidence = json.loads(json.dumps(report["evidence"]))
    node = evidence
    for key in path[:-1]:
        node = node[key]
    if value is DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return dict(report, evidence=evidence)


@pytest.fixture(scope="module")
def evidence_reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("reports")
    reports = {}
    for name, (raw, command, flags) in EVIDENCE_REPORTS.items():
        cfg_path = make_cfg(root, f"{name}.cfg.json", raw)
        out = root / f"{name}.json"
        main(["--config", cfg_path, "--command", command, "--output", str(out)]
             + flags)
        reports[name] = (cfg_path, json.loads(out.read_text()))
    return reports


def verify_detail(tmp_path, cfg_path, report, restamp=True):
    code = replay_code(tmp_path, cfg_path, report, restamp)
    return code, json.loads((tmp_path / "v.json").read_text())["result"]


def test_verify_cert_in_a_fresh_process(tmp_path, evidence_reports):
    # a covering replays without the search, the S-unit basis or
    # dataclasses; a witness replay imports minima and units
    for name, loaded in (("cover", []), ("m", ["dataclasses",
                                              "euclidmin.enumerate",
                                              "euclidmin.minima",
                                              "euclidmin.units"])):
        cfg_path, report = evidence_reports[name]
        cert, out = tmp_path / f"{name}.json", tmp_path / f"v-{name}.json"
        cert.write_text(json.dumps(report))
        argv = ["--config", cfg_path, "--command", "verify-cert",
                "--cert", str(cert), "--output", str(out)]
        done = _fresh_python(
            "import sys\n"
            "from euclidmin.cli import main\n"
            f"code = main({argv!r})\n"
            "print(code, *sorted({'euclidmin.minima', 'dataclasses',\n"
            "                     'euclidmin.units', 'euclidmin.enumerate',\n"
            "                     'euclidmin.forms'} & set(sys.modules)))\n")
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().split() == ["0"] + loaded, name
        assert json.loads(out.read_text())["result"]["replay"] == "pass"


def test_generators_that_are_not_s_units(tmp_path, evidence_reports):
    # S-integers 2 and 5 of the right shape, but 5 is not an S-unit of
    # Z[1/6]: each command that uses the unit basis fails at S before any
    # work, and so does the replay of a witness, whose orbit uses it
    bad = dict(Z16, units={"gens": [[2], [5]]})
    for command, flags in (("info", []), ("m", []),
                           ("cover", ["--t", "21/100"])):
        cfg_path = make_cfg(tmp_path, "bad.json",
                            dict(bad, params={"xi": ["1/5"]}))
        out = tmp_path / "err.json"
        assert main(["--config", cfg_path, "--command", command,
                     "--output", str(out)] + flags) == 1, command
        error = json.loads(out.read_text())["error"]
        assert error["type"] == "ValidationError", command
        assert error["message"].startswith("S: "), command
    # the report's units are compared with the config's as data
    cfg_path = make_cfg(tmp_path, "bad.json", bad)
    assert verify_detail(tmp_path, cfg_path, evidence_reports["cover"][1],
                         restamp=False) == \
        (3, {"replay": "fail",
             "detail": "report units differs from the given config"})
    # reports forged for that config and stamped again, as no command
    # makes them
    for name, code in (("m", 1), ("M", 1), ("cover", 0)):
        _, report = evidence_reports[name]
        forged = dict(report["config"], units=bad["units"])
        cfg_path = make_cfg(tmp_path, "bad.json", forged)
        assert replay_code(tmp_path, cfg_path,
                           dict(report, config=forged)) == code, name
        written = json.loads((tmp_path / "v.json").read_text())
        if code == 1:
            # the witness replay fails at the unit basis, not elsewhere
            assert written["error"]["type"] == "ValidationError", name
            assert written["error"]["message"].startswith("S: "), name
    # a covering claim does not use units: its replay runs on S's places
    assert written["result"] == {"replay": "pass",
                                 "detail": "covering certificate with 20 boxes"}


def test_unit_basis_is_attached_to_the_places_of_s():
    # one SConfig per config, so a replay of covering and witness evidence
    # builds one torus context per ideal
    cfg = parse_config(json.dumps(Z16))
    places = cfg.s_places
    assert not places.verified and places.unit_gens == ()
    assert cfg.sconfig is places
    assert places.verified and len(places.unit_gens) == 2


def test_verify_cert_tamper_table(tmp_path, evidence_reports):
    assert evidence_reports["cover-witness"][1]["result"]["covered"] is False
    assert evidence_reports["M-uncertified"][1]["result"]["upper"] is None
    # M exits 2 when the budget ends before the bracket meets the gap
    assert evidence_reports["M-uncertified"][1]["exit_code"] == 2
    assert evidence_reports["M"][1]["exit_code"] == 0
    for name, (cfg_path, report) in evidence_reports.items():
        assert verify_detail(tmp_path, cfg_path, report, restamp=False) == \
            (0, {"replay": "pass", "detail": ANY}), name
    for name, key, value in TAMPERS:
        cfg_path, report = evidence_reports[name]
        claims = dict(report["result"])
        if value is DROP:
            del claims[key]
        else:
            # compared as JSON, where true is not 1
            assert json.dumps(claims[key]) != json.dumps(value), (name, key)
            claims[key] = value
        code, result = verify_detail(tmp_path, cfg_path,
                                     dict(report, result=claims))
        assert code == 3 and result["replay"] == "fail", (name, key, value)
        assert "content_hash" not in result["detail"], (name, key)
    cfg_path, report = evidence_reports["m"]
    # a report that is not a JSON object
    assert replay_code(tmp_path, cfg_path, [report], restamp=False) == 3
    # an m report whose result is for another xi than its config names
    other = dict(report, config=dict(report["config"], params={"xi": ["1/7"]}))
    assert replay_code(tmp_path, cfg_path, other) == 3
    # an edit outside the result, under the old hash
    cfg_path, report = evidence_reports["M"]
    stale = dict(report, effort=dict(report["effort"], covering_boxes=1))
    code, result = verify_detail(tmp_path, cfg_path, stale, restamp=False)
    assert code == 3 and "content_hash" in result["detail"]


def test_verify_cert_rejects_evidence_of_another_command(tmp_path,
                                                        evidence_reports):
    # a covering pasted into a report of a command that makes no evidence
    cfg_path, cover = evidence_reports["cover"]
    out = tmp_path / "info.json"
    assert main(["--config", cfg_path, "--command", "info",
                 "--output", str(out)]) == 0
    info = json.loads(out.read_text())
    forged = dict(info, result=dict(info["result"], degree=7,
                                    discriminant=12345),
                  evidence=cover["evidence"])
    for report in (forged, dict(forged, command="bogus")):
        code, result = verify_detail(tmp_path, cfg_path, report)
        assert code == 3 and result["replay"] == "fail", report["command"]
        assert "makes no evidence" in result["detail"]


def test_verify_cert_fails_on_malformed_evidence(tmp_path, evidence_reports):
    for name, path, value in EVIDENCE_TAMPERS:
        cfg_path, report = evidence_reports[name]
        code, result = verify_detail(tmp_path, cfg_path,
                                     edit_evidence(report, path, value))
        assert code == 3 and result["replay"] == "fail", (name, path, value)
