"""The benchmark's own tests: oracles, reduced workloads, planted faults.

    python3 -m pytest -q perfbench/selftest.py

Run from the root of a checkout. The file is not named test_*.py, so the
program's test suite does not collect it.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles as orc  # noqa: E402
import run  # noqa: E402
import workloads as wk  # noqa: E402

SRC = Path.cwd() / "src"
em = run.import_program(SRC)


# -- oracles ------------------------------------------------------------------


def test_oracles_match_known_values():
    assert orc.rational_minimum(F(1, 5), (2, 3)) == F(1, 5)
    assert orc.rational_minimum(F(1, 2), (2,)) == 0
    assert orc.rational_minimum(F(3, 7), ()) == F(3, 7)
    assert orc.rational_orbit(F(1, 5), (2, 3)) == {F(k, 5) for k in range(1, 5)}
    assert orc.definite_form_min(1, 0, 1, F(1, 2), F(1, 2)) == F(1, 2)
    # (1 + sqrt-5)/2 in Z[sqrt-5]: the classical witness of value 3/2
    assert orc.imaginary_quadratic_minimum(
        (5, 0, 1), [[1, 0], [0, 1]], 1, [F(1, 2), F(1, 2)]) == F(3, 2)
    assert orc.quadratic_discriminant((3, 0, 1)) == (-3, 2)
    assert orc.quadratic_discriminant((-5, 0, 1)) == (5, 2)
    assert orc.norm((1, 1, 1, 1, 1), (1, 1, 0, 0)) == 1
    assert orc.norm((-2, 0, 1), (1, 1)) == -1


# -- reduced workloads --------------------------------------------------------


def _reduced_round(wl, keep, tmp_path, seed=5):
    problems = wl.setup(em, seed)
    assert problems == []
    ops = [op for op in wl.round_ops(0, tmp_path) if keep(op)]
    log = run.RoundLog()
    run.run_round(wl, 0, ops, tmp_path, log)
    return ops, log


def test_minima_reduced(tmp_path):
    wl = wk.Minima()
    seen = {}

    def keep(op):
        key = op.case.name if op.case else "form"
        seen[key] = seen.get(key, 0) + 1
        return seen[key] <= 2 and key != wk.QUARTIC.name
    ops, log = _reduced_round(wl, keep, tmp_path)
    assert log.failed == {}
    units = run.replay_units(wl, log)
    rep = run.replay(units[:1], tmp_path, trace=False)
    assert rep["failures"] == []


def test_bounds_reduced(tmp_path, monkeypatch):
    monkeypatch.setattr(wk, "M_PANEL", ((wk.W3, F(1, 10), 3200),))
    monkeypatch.setattr(wk, "COVER_PANEL", (
        (wk.Z16, 2, F(21, 100), F(3, 10), 4000),
        (wk.M5CLS, 1, F(6, 5), F(5, 4), 4000)))
    ops, log = _reduced_round(wk.Bounds(), lambda op: True, tmp_path)
    assert len(ops) == 4 and log.failed == {}


def test_cli_reduced(tmp_path):
    wl = wk.CliReports()
    assert wl.setup(em, 5) == []
    ops = wl.round_ops(0, tmp_path)
    kept = [i for i, op in enumerate(ops)
            if op.case.name in ("Z[i]", "Z[sqrt-5]")
            and op.command in ("decide", "m", "info", "orbit")]
    kept += [i for i, op in enumerate(ops)
             if op.command == "verify-cert" and op.source in kept]
    ops = [ops[i] for i in kept]
    log = run.RoundLog()
    run.run_round(wl, 0, ops, tmp_path, log)
    assert log.failed == {}
    assert any(op.command == "verify-cert" for op in ops)
    assert wl.rerun_identical(ops) is None


# -- planted faults -----------------------------------------------------------


def test_minimum_off_is_rejected(tmp_path):
    wl = wk.Minima()
    wl.setup(em, 7)
    ops = [op for op in wl.round_ops(0, tmp_path) if op.kind == "m"][:6]
    results = [wl.run_op(op, tmp_path) for op in ops]
    assert wl.check_round(ops, results) == {}
    bad = [dataclasses.replace(r, value=r.value + F(1, 97)) for r in results]
    assert set(wl.check_round(ops, bad)) == set(range(len(ops)))


def test_form_minimum_off_is_rejected(tmp_path):
    wl = wk.Minima()
    wl.setup(em, 7)
    ops = [op for op in wl.round_ops(0, tmp_path) if op.kind == "form"][:3]
    results = [wl.run_op(op, tmp_path) for op in ops]
    assert wl.check_round(ops, results) == {}
    assert len(wl.check_round(ops, [r * 2 + 1 for r in results])) == 3


def test_certificate_missing_an_entry_is_rejected(tmp_path):
    from euclidmin.cli import certificate_to_json
    b = wk.Built(em, wk.Z16)
    cert = em.covering_verify(b.ideal, b.sconfig, F(21, 100))
    data = certificate_to_json(cert)
    point = F(1, 5)
    assert orc.q_certificate_point(data, (2, 3), point) is None
    hit = [e for e in data["entries"]
           if orc.q_certificate_point(dict(data, entries=[e]), (2, 3), point)
           is None]
    assert len(hit) == 1
    holed = dict(data, entries=[e for e in data["entries"] if e is not hit[0]])
    assert orc.q_certificate_point(holed, (2, 3), point) is not None
    # the replay in a separate process rejects it as well
    item = {"case": wk.Z16.spec(), "evidence": holed, "round": 0, "op": 0}
    rep = run.replay([[item]], tmp_path, trace=False)
    assert len(rep["failures"]) == 1


def _cli_report(tmp_path, wl, name, command, params=None):
    case = wl.cases[name]
    cfg = tmp_path / f"{name}-{command}.json"
    cfg.write_text(json.dumps(wl._config(case, params)))
    op = wk.CliOp(command, case, [], cfg=str(cfg),
                  out=str(tmp_path / f"{name}-{command}.out.json"))
    return op, wl.run_op(op, tmp_path)


def _tamper(path, edit):
    report = json.loads(Path(path).read_text())
    edit(report)
    report["content_hash"] = orc.content_hash(report)
    Path(path).write_text(json.dumps(report))


def test_flipped_verdict_is_rejected(tmp_path):
    wl = wk.CliReports()
    wl.setup(em, 1)
    op, code = _cli_report(tmp_path, wl, "Z[sqrt-5]", "decide")
    assert wl.check_round([op], [code]) == {}
    _tamper(op.out, lambda r: r["result"].update(verdict="euclidean"))
    assert len(wl.check_round([op], [code])) == 1


def test_cli_minimum_off_and_hash_are_rejected(tmp_path):
    wl = wk.CliReports()
    wl.setup(em, 1)
    op, code = _cli_report(tmp_path, wl, "Z[i]", "m",
                           {"xi": ["1/3", "2/5"]})
    op.params = {"xi": [F(1, 3), F(2, 5)]}
    assert wl.check_round([op], [code]) == {}
    report = json.loads(Path(op.out).read_text())
    report["result"]["value"] = "1/2"
    Path(op.out).write_text(json.dumps(report))
    assert "content_hash" in wl.check_round([op], [code])[0]
    _tamper(op.out, lambda r: None)
    assert "oracle" in wl.check_round([op], [code])[0]


def test_hanging_cli_process_is_killed(tmp_path, monkeypatch):
    wl = wk.CliReports()
    wl.setup(em, 1)
    hang = tmp_path / "hang.py"
    hang.write_text("import time\ntime.sleep(60)\n")
    wl.entry = str(hang)
    monkeypatch.setattr(wk, "CLI_TIMEOUT_S", 0.5)
    op = wk.CliOp("info", wl.cases["Z[i]"], [], cfg="unused",
                  out=str(tmp_path / "out.json"))
    with pytest.raises(TimeoutError):
        wl.run_op(op, tmp_path)
    assert len(wl.rss_kb) == 1


def test_bare_directory_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(Path.cwd() / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "minima", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


@pytest.mark.parametrize("name", sorted(wk.WORKLOADS))
def test_round_make_up_is_seed_independent(name, tmp_path):
    def shape(seed):
        wl = wk.WORKLOADS[name]()
        wl.setup(em, seed)
        return [(getattr(op, "kind", None) or op.command, op.case and op.case.name)
                for op in wl.round_ops(0, tmp_path / str(seed))]
    assert shape(1) == shape(2)
