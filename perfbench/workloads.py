"""The three workloads: their panels, seeded inputs, operations and checks.

A workload is run in rounds. Every round has the same make-up (the same
operation kinds on the same cases, in the same order) and fresh inputs
drawn from (seed, round), so no input repeats within a run. Round 0 is
generated during set-up; later rounds are generated between rounds,
outside the timed operations.

Checks never compare with stored output. They use `oracles` (exact
arithmetic written apart from euclidmin) and properties every correct
answer has.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import threading
from dataclasses import dataclass, field as dc_field
from fractions import Fraction as F
from pathlib import Path

import oracles as orc

# ideal scale per round: round 0 uses the literature ideals, later rounds a
# principal multiple prime to every S used here, so inputs stay distinct
SCALES = (1, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


def scale_of(r: int) -> int:
    return SCALES[r % len(SCALES)] * (1 + r // len(SCALES) * 46)


# a CLI process still running after this long is killed and its operation
# counts as failed; every command of the workload ends within a second
CLI_TIMEOUT_S = 60


# -- cases --------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """A field, a set S of rational primes and an ideal, in power-basis terms.

    `beta` is a Z-basis of the ideal (rows of power-basis coordinates) known
    apart from the program; `units` are S-unit generators handed to
    make_sconfig (None: built-in ones); `unit` is one unit of O whose norm
    the benchmark checks itself, used for invariance pairs.
    """
    name: str
    poly: tuple
    primes: tuple = ()
    beta: tuple | None = None
    units: tuple | None = None
    unit: tuple | None = None
    scale: int = 1

    @property
    def degree(self):
        return len(self.poly) - 1

    def scaled(self, c: int) -> "Case":
        return Case(self.name, self.poly, self.primes, self.beta, self.units,
                    self.unit, self.scale * c)

    def basis(self):
        """Ideal Z-basis in power-basis coordinates, scale included."""
        n = self.degree
        rows = self.beta or tuple(tuple(1 if i == j else 0 for j in range(n))
                                  for i in range(n))
        return [[F(c) * self.scale for c in row] for row in rows]

    def order_index(self) -> int:
        if self.degree == 2:
            return orc.quadratic_discriminant(self.poly)[1]
        return 1

    def ideal_norm(self) -> F:
        return orc.lattice_det(self.basis()) * self.order_index()

    def spec(self) -> dict:
        return {"name": self.name, "poly": list(self.poly),
                "primes": list(self.primes),
                "beta": [list(r) for r in self.beta] if self.beta else None,
                "units": [list(u) for u in self.units] if self.units else None,
                "scale": self.scale}

    @staticmethod
    def from_spec(s: dict) -> "Case":
        return Case(s["name"], tuple(s["poly"]), tuple(s["primes"]),
                    tuple(tuple(r) for r in s["beta"]) if s["beta"] else None,
                    tuple(tuple(u) for u in s["units"]) if s["units"] else None,
                    None, s["scale"])


class Built:
    """The program's objects for one case, built through the public API."""

    def __init__(self, em, case: Case):
        self.case = case
        self.field = em.make_field(list(case.poly))
        units = None
        if case.units:
            units = [self.field.from_power_basis([F(c) for c in u])
                     for u in case.units]
        self.sconfig = em.make_sconfig(self.field, list(case.primes),
                                       unit_gens=units)
        self.ideal = em.ideal_from_gens(
            [self.field.from_power_basis(row) for row in case.basis()])
        from euclidmin.torus import torus_context
        self.ctx = torus_context(self.ideal, self.sconfig)
        self.basis_pb = [[F(c) for c in row] for row in self.field.basis_pb]

    def check_basis(self) -> str | None:
        """The program's integral basis must span the maximal order."""
        case = self.case
        if case.degree == 2:
            ok = orc.same_lattice(self.basis_pb,
                                  orc.quadratic_maximal_order(case.poly))
        else:  # Z[theta] is maximal for every other field of the panels
            ok = orc.spans_power_lattice(self.basis_pb)
        if not ok:
            return f"{case.name}: integral basis does not span O"
        order = [v.p for v in self.sconfig.finite_places]
        if sorted(set(order)) != list(case.primes) or order != sorted(order):
            return f"{case.name}: finite places {order}, expected {case.primes}"
        return None

    def power(self, elem) -> list:
        return orc.to_power(self.basis_pb, elem.coords)


def build_all(em, cases) -> dict:
    out = {}
    for case in cases:
        key = (case.name, case.scale)
        if key not in out:
            out[key] = Built(em, case)
    return out


def own_minimum(case: Case, xi_power) -> F | None:
    """The minimum by an oracle written apart, where one applies."""
    if case.degree == 1:
        return orc.rational_minimum(F(xi_power[0]) / case.scale, case.primes)
    if case.degree == 2 and not case.primes and \
            orc.quadratic_discriminant(case.poly)[0] < 0:
        return orc.imaginary_quadratic_minimum(case.poly, case.basis(),
                                               case.ideal_norm(), xi_power)
    return None


def check_minimum(case: Case, built: Built, xi_power, value: F,
                  shift_coords) -> str | None:
    """Exact re-check of a minimum claimed at xi with its attaining shift."""
    primes = case.primes
    shift = orc.to_power(built.basis_pb, shift_coords)
    over = orc.coords_over(case.basis(), shift)
    if not all(orc.is_s_number(c, primes) for c in over):
        return "attaining shift is not in the S-ideal"
    diff = orc.sub(xi_power, shift)
    na = orc.s_free(case.ideal_norm(), primes)
    direct = (orc.s_free(orc.norm(case.poly, diff), primes) / na
              if any(diff) else F(0))
    if direct != value:
        return f"shift gives {direct}, claimed {value}"
    oracle = own_minimum(case, xi_power)
    if oracle is not None and oracle != value:
        return f"oracle {oracle}, program {value}"
    if oracle is None:
        # any lattice point bounds the minimum from above
        coords = orc.coords_over(case.basis(), xi_power)
        near = [round(c) for c in coords]
        gamma = [sum(F(near[i]) * case.basis()[i][j] for i in range(len(near)))
                 for j in range(case.degree)]
        d2 = orc.sub(xi_power, gamma)
        if any(d2):
            upper = orc.s_free(orc.norm(case.poly, d2), primes) / na
            if value > upper:
                return f"value {value} above the bound {upper}"
    return None


def own_unit_ok(case: Case) -> bool:
    return case.unit is None or abs(orc.norm(case.poly, case.unit)) == 1


# -- shared op record ---------------------------------------------------------


@dataclass
class Op:
    kind: str
    case: Case | None
    args: dict
    pair: "Op | None" = dc_field(default=None, repr=False)  # unit partner


def _draw_rational(rng, primes, slot, slots, lo=2, hi=60, num=300):
    """A rational whose cost is set by its slot: the denominator
    part prime to S (evenly spread over [lo, hi]) and the S-number times it;
    only the numerator, prime to that denominator, is random."""
    dens = [q for q in range(lo, hi + 1) if all(q % p for p in primes)]
    q = dens[slot * len(dens) // slots]
    s = 1
    for j, p in enumerate(primes):
        s *= p ** ((slot + j) % 3)
    while True:
        n = rng.randint(-num, num)
        if math.gcd(n, q) == 1:
            return F(n, q * s)


def _draw_element(rng, degree, dens, slot, num=12):
    """Coordinates over the power basis with exact denominator
    dens[slot % len(dens)] and random numerators."""
    d = dens[slot % len(dens)]
    while True:
        nums = [rng.randint(-num, num) for _ in range(degree)]
        if math.gcd(d, *nums) == 1:
            return [F(k, d) for k in nums]


def _strata(rng, lo: F, hi: F, k: int, first_exact=True) -> list:
    """k thresholds, one in each of k equal slices of [lo, hi), placed 0.4142
    of the way into the slice (away from the simple rationals where box
    bounds sit) and moved by the seed within 1/20000 of the slice; the first
    is lo itself when requested. The seed moves each threshold, not the
    work it takes."""
    out = []
    width = (hi - lo) / k
    for i in range(k):
        if i == 0 and first_exact:
            out.append(lo)
        else:
            jitter = F(4142, 10000) + F(rng.randrange(-500, 500), 10 ** 7)
            out.append(lo + width * (i + jitter))
    return out


def interleave(groups) -> list:
    """Merge the groups so that each one is spread evenly over the result;
    items keep their order within a group. The order depends only on the
    group sizes, so every round runs its operations in the same pattern."""
    keyed = [((k + 0.5) / len(g), j, k, item) for j, g in enumerate(groups)
             for k, item in enumerate(g)]
    return [item for *_, item in sorted(keyed, key=lambda t: t[:3])]


# -- minima -------------------------------------------------------------------


Q0 = Case("Q", (-1, 1))
Q2 = Case("Q_S2", (-1, 1), (2,))
Q23 = Case("Q_S23", (-1, 1), (2, 3))
QI = Case("Qi", (1, 0, 1), unit=(0, 1))
R2S7 = Case("Qsqrt2_S7", (-2, 0, 1), (7,), unit=(1, 1))
M5CLS = Case("Qsqrt-5_class", (5, 0, 1), beta=((2, 0), (1, 1)))
CUBIC = Case("cubic_x3-x-1", (-1, -1, 0, 1), units=((0, 1, 0),),
             unit=(0, 1, 0))
QUARTIC = Case("quartic_zeta5", (1, 1, 1, 1, 1), units=((1, 1, 0, 0),),
               unit=(1, 1, 0, 0))

FORMS = ((1, 0, 1), (1, 1, 1), (1, 0, 2), (2, 2, 3))

# (case, operations per round, denominators); Q cases draw rationals
MINIMA_MIX = (
    (Q0, 16, None), (Q2, 16, None), (Q23, 16, None),
    (QI, 12, (2, 3, 4, 5, 6)), (R2S7, 8, (2, 3, 4, 5, 6)),
    (M5CLS, 12, (2, 3, 4, 5, 6)), (CUBIC, 8, (2, 3)), (QUARTIC, 4, (2,)),
)
FORM_OPS = 12


class Minima:
    name = "minima"
    spawns = False          # operations run in this process
    min_rounds = 6
    replay_repeats = 1      # replay every round once
    tail_pct = 98           # >= 624 operations: at least 12 beyond
    cases = tuple(c for c, _, _ in MINIMA_MIX)

    def setup(self, em, seed):
        self.em = em
        self.seed = seed
        self.built = build_all(em, self.cases)
        self.forms = [em.BinaryQuadraticForm(*f) for f in FORMS]
        self.seen = set()
        problems = [b.check_basis() for b in self.built.values()]
        problems += [f"{c.name}: unit check failed" for c in self.cases
                     if not own_unit_ok(c)]
        return [p for p in problems if p]

    def round_ops(self, r: int, workdir: Path) -> list:
        rng = random.Random(f"minima:{self.seed}:{r}")
        groups = []
        for case, count, dens in MINIMA_MIX:
            b = self.built[(case.name, 1)]
            units = []
            made = 0
            while made < count:
                if dens is None:
                    x = [_draw_rational(rng, case.primes, made, count)]
                    group = [x]
                else:
                    x = _draw_element(rng, case.degree, dens, made // 2)
                    group = [x]
                    if case.unit is not None:
                        group.append(orc.mul(case.poly, case.unit, x))
                    group = group[:count - made]
                keys = [(case.name, tuple(g)) for g in group]
                if any(k in self.seen for k in keys) or len(set(keys)) < len(keys):
                    continue
                self.seen.update(keys)
                made_ops = [Op("m", case, {"xi": g, "elem":
                                           b.field.from_power_basis(g)})
                            for g in group]
                if len(made_ops) == 2:
                    made_ops[0].pair, made_ops[1].pair = made_ops[1], made_ops[0]
                units.append(made_ops)
                made += len(group)
            groups.append(units)
        forms = []
        made = 0
        while made < FORM_OPS:
            k = made % len(FORMS)
            point = (F(rng.randint(-9, 9), rng.randint(1, 8)),
                     F(rng.randint(-9, 9), rng.randint(1, 8)))
            key = ("form", k, point)
            if key in self.seen:
                continue
            self.seen.add(key)
            forms.append([Op("form", None, {"form": k, "point": point})])
            made += 1
        return [op for unit in interleave(groups + [forms]) for op in unit]

    def run_op(self, op, workdir):
        if op.kind == "m":
            b = self.built[(op.case.name, 1)]
            return self.em.m_exact(b.ideal, b.sconfig, op.args["elem"])
        return self.em.m_form(self.forms[op.args["form"]], op.args["point"])

    def check_round(self, ops, results) -> dict:
        bad = {}
        result_of = {id(op): res for op, res in zip(ops, results)}
        for i, (op, res) in enumerate(zip(ops, results)):
            if res is None:
                continue
            if op.kind == "form":
                a, b_, c = FORMS[op.args["form"]]
                want = orc.definite_form_min(a, b_, c, *op.args["point"])
                if res != want:
                    bad[i] = f"m_form {res}, oracle {want}"
                continue
            b = self.built[(op.case.name, 1)]
            msg = check_minimum(op.case, b, op.args["xi"], res.value,
                                res.attaining_shift.coords)
            if msg is None and not res.value > 0:
                msg = "class outside the S-ideal got minimum 0"
            partner = result_of.get(id(op.pair))
            if msg is None and partner is not None and \
                    partner.value != res.value:
                msg = f"unit invariance: {res.value} against {partner.value}"
            if msg:
                bad[i] = msg
        return bad

    def evidence(self, op, res) -> list:
        """Replayable evidence of one operation, as canonical JSON objects."""
        if op.kind != "m":
            return []
        from euclidmin.cli import witness_to_json
        return [{"case": op.case.spec(),
                 "evidence": witness_to_json(op.args["elem"], res)}]


# -- bounds -------------------------------------------------------------------


Z16 = Case("Z[1/6]", (-1, 1), (2, 3))
Q235 = Case("Q_S235", (-1, 1), (2, 3, 5))
QI2 = Case("Qi_S2", (1, 0, 1), (2,))
W3 = Case("Qsqrt-3_S3", (1, 1, 1), (3,))

# compute_M: (case, gap, budget)
M_PANEL = ((Z16, F(1, 100), 3200), (Q235, F(1, 20), 3200),
           (QI2, F(1, 10), 3200), (W3, F(1, 10), 3200))
# covering_verify: (case, count, lowest threshold, top of the range, budget)
COVER_PANEL = ((Z16, 32, F(21, 100), F(3, 10), 4000),
               (Q235, 12, F(17, 100), F(1, 5), 4000),
               (M5CLS, 4, F(1), F(6, 5), 4000))
Q_POINTS = 32


def _q_points(rng, primes, count):
    pts = []
    while len(pts) < count:
        q = rng.randint(2, 97)
        if all(q % p for p in primes):
            pts.append(F(rng.randrange(q), q))
    return pts


def check_certificate_points(case: Case, built: Built, cert: dict, rng,
                             count=Q_POINTS) -> str | None:
    """Sample points of the torus and check each against the certificate
    with the benchmark's own arithmetic (Q, or S empty in degree 2)."""
    if case.degree == 1:
        for u in _q_points(rng, case.primes, count):
            msg = orc.q_certificate_point(cert, case.primes, u, case.scale)
            if msg:
                return msg
        return None
    if case.degree == 2 and not case.primes:
        for _ in range(count):
            d1, d2 = rng.randint(1, 40), rng.randint(1, 40)
            msg = orc.quadratic_certificate_point(
                cert, case.poly, built.basis_pb, F(rng.randrange(d1), d1),
                F(rng.randrange(d2), d2))
            if msg:
                return msg
    return None


def q_lower_bound(primes, max_den=12) -> F:
    """max of the oracle minimum over rationals of small denominator: a lower
    bound on M that any certified upper bound must respect."""
    best = F(0)
    for q in range(2, max_den + 1):
        if all(q % p for p in primes):
            for k in range(1, q):
                best = max(best, orc.rational_minimum(F(k, q), primes))
    return best


class Bounds:
    name = "bounds"
    spawns = False
    min_rounds = 1
    replay_repeats = 8      # replay every round (one, as a rule) eight times
    tail_pct = 80           # 52 operations: 10 beyond
    cases = tuple({c.name: c for c, *_ in M_PANEL + COVER_PANEL}.values())

    def setup(self, em, seed):
        self.em = em
        self.seed = seed
        self.built = build_all(em, self.cases)
        problems = [b.check_basis() for b in self.built.values()]
        return [p for p in problems if p]

    def _built(self, case):
        key = (case.name, case.scale)
        if key not in self.built:
            self.built[key] = Built(self.em, case)
        return self.built[key]

    def round_ops(self, r: int, workdir: Path) -> list:
        rng = random.Random(f"bounds:{self.seed}:{r}")
        c = scale_of(r)
        groups = [[]]
        for case, gap, budget in M_PANEL:
            sc = case.scaled(c)
            self._built(sc)
            groups[0].append(Op("M", sc, {"gap": gap, "budget": budget}))
        for case, count, lo, hi, budget in COVER_PANEL:
            sc = case.scaled(c)
            self._built(sc)
            groups.append([Op("cover", sc, {"t": t, "budget": budget})
                           for t in _strata(rng, lo, hi, count)])
        return interleave(groups)

    def run_op(self, op, workdir):
        b = self._built(op.case)
        if op.kind == "M":
            return self.em.compute_M(b.ideal, b.sconfig, op.args["gap"],
                                     budget=op.args["budget"])
        return self.em.covering_verify(b.ideal, b.sconfig, op.args["t"],
                                       budget=op.args["budget"])

    def check_round(self, ops, results) -> dict:
        from euclidmin.cli import certificate_to_json
        bad = {}
        rng = random.Random(f"bounds-points:{self.seed}")
        for i, (op, res) in enumerate(zip(ops, results)):
            if res is None:
                continue
            case, b = op.case, self._built(op.case)
            if op.kind == "M":
                msg = None
                if res.upper is None or res.certificate is None:
                    msg = "no certified upper bound"
                elif not res.lower <= res.upper:
                    msg = f"lower {res.lower} above upper {res.upper}"
                elif res.upper - res.lower > op.args["gap"]:
                    msg = f"gap {res.upper - res.lower} not reached"
                elif res.certificate.threshold != res.upper:
                    msg = "certificate threshold differs from upper"
                if msg is None:
                    msg = check_minimum(case, b, b.power(res.witness),
                                        res.lower,
                                        res.witness_minimum.attaining_shift.coords)
                if msg is None and case.degree == 1:
                    floor = q_lower_bound(case.primes)
                    if floor > res.upper:
                        msg = f"upper {res.upper} below the known value {floor}"
                if msg is None:
                    msg = check_certificate_points(
                        case, b, certificate_to_json(res.certificate), rng)
            else:
                if not isinstance(res, self.em.CoveringCertificate):
                    msg = f"covering above the supremum failed: {res!r}"
                elif res.threshold != op.args["t"] or not res.entries:
                    msg = "certificate threshold or entries wrong"
                else:
                    msg = check_certificate_points(
                        case, b, certificate_to_json(res), rng)
            if msg:
                bad[i] = msg
        return bad

    def evidence(self, op, res) -> list:
        from euclidmin.cli import certificate_to_json, witness_to_json
        spec = op.case.spec()
        out = []
        cert = res
        if op.kind == "M":
            out.append({"case": spec, "evidence": witness_to_json(
                res.witness, res.witness_minimum)})
            cert = res.certificate
        if isinstance(cert, self.em.CoveringCertificate):
            out.append({"case": spec, "evidence": certificate_to_json(cert)})
        return out


# -- cli-reports --------------------------------------------------------------


# decide fixtures: name -> (poly, primes, ideal gens over the integral basis,
# verdict from the literature, exact witness value where the literature
# gives it)
DECIDE = (
    ("Z[1/6]", (-1, 1), (2, 3), ((1,),), "euclidean", None),
    ("Z[i]", (1, 0, 1), (), ((1, 0),), "euclidean", None),
    ("Z[sqrt-5]", (5, 0, 1), (), ((1, 0),), "not_euclidean", F(3, 2)),
    ("Z[sqrt-5]_class", (5, 0, 1), (), ((2, 0), (1, 1)), "euclidean", None),
    ("Q(sqrt-2)", (2, 0, 1), (), None, "euclidean", None),
    ("Q(sqrt-3)", (3, 0, 1), (), None, "euclidean", None),
    ("Q(sqrt-7)", (7, 0, 1), (), None, "euclidean", None),
    ("Q(sqrt-11)", (11, 0, 1), (), None, "euclidean", None),
    ("Q(sqrt2)", (-2, 0, 1), (), None, "euclidean", None),
    ("Q(sqrt3)", (-3, 0, 1), (), None, "euclidean", None),
    ("Q(sqrt5)", (-5, 0, 1), (), None, "euclidean", None),
    ("Q(sqrt6)", (-6, 0, 1), (), None, "euclidean", None),
    ("Q(sqrt7)", (-7, 0, 1), (), None, "euclidean", None),
    ("Q(sqrt13)", (-13, 0, 1), (), None, "euclidean", None),
    ("Q(sqrt-19)", (19, 0, 1), (), None, "not_euclidean", None),
    ("Q(sqrt-6)", (6, 0, 1), (), None, "not_euclidean", None),
    ("Q(sqrt-15)", (15, 0, 1), (), None, "not_euclidean", None),
    ("Q(sqrt10)", (-10, 0, 1), (), None, "not_euclidean", None),
)
# Euclidean minima from the literature, for the M reports
M_LITERATURE = {"Z[i]": F(1, 2), "Q(sqrt-2)": F(3, 4)}


def _cli_case(name) -> Case:
    for n, poly, primes, gens, _, _ in DECIDE:
        if n == name:
            beta = None
            if gens is not None and gens != ((1,),) and gens != ((1, 0),):
                beta = gens       # integral basis = power basis here
            if gens is None:
                beta = tuple(tuple(r) for r in
                             orc.quadratic_maximal_order(poly)) \
                    if orc.quadratic_discriminant(poly)[1] > 1 else None
            return Case(n, poly, primes, beta)
    raise KeyError(name)


@dataclass
class CliOp:
    command: str
    case: Case
    args: list
    params: dict = dc_field(default_factory=dict)
    source: int | None = None         # verify-cert: index of the report
    out: str = ""
    cfg: str = ""


class CliReports:
    name = "cli-reports"
    spawns = True           # one euclidmin process per operation
    min_rounds = 1
    tail_pct = 86           # 74 operations: 10 beyond

    def setup(self, em, seed):
        self.em = em
        self.seed = seed
        self.cases = {n: _cli_case(n) for n, *_ in DECIDE}
        self.built = build_all(em, self.cases.values())
        self.root = Path.cwd()
        self.entry = str(Path(__file__).resolve().parent / "cli_entry.py")
        self.env = dict(os.environ)
        src = str(self.root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")
        self.trace_dir = None
        self.rss_kb = []
        problems = [b.check_basis() for b in self.built.values()]
        return [p for p in problems if p]

    def _config(self, case: Case, params=None) -> dict:
        """The CLI config for a case, with ideal gens over the integral basis
        (the identity for the panels that take seeded inputs)."""
        b = self.built[(case.name, 1)]
        inv_rows = case.basis()
        gens = [[str(c) for c in orc.coords_over(b.basis_pb, row)]
                for row in inv_rows]
        raw = {"field": {"poly": list(case.poly)},
               "S": {"primes": list(case.primes)},
               "ideal": {"gens": gens}}
        if params:
            raw["params"] = params
        return raw

    def round_ops(self, r: int, workdir: Path) -> list:
        rng = random.Random(f"cli:{self.seed}:{r}")
        c = scale_of(r)
        rdir = workdir / f"round{r}"
        rdir.mkdir(parents=True, exist_ok=True)
        z16 = self.cases["Z[1/6]"].scaled(c)
        qi = self.cases["Z[i]"].scaled(c)
        m5c = self.cases["Z[sqrt-5]_class"].scaled(c)
        m2 = self.cases["Q(sqrt-2)"].scaled(c)
        ops = []
        for name, *_ in DECIDE:
            ops.append(CliOp("decide", self.cases[name].scaled(c), []))
        for case, lo, hi in ((z16, F(21, 100), F(3, 10)), (qi, F(51, 100), F(3, 4)),
                             (m5c, F(1), F(6, 5))):
            t = _strata(rng, lo, hi, 1, first_exact=(r == 0))[0]
            ops.append(CliOp("cover", case, ["--t", str(t)],
                             params={"t": t}))
        for case in (qi, m2):
            ops.append(CliOp("M", case, ["--gap", "1/20"],
                             params={"gap": F(1, 20)}))
        for k, case in enumerate((z16, z16, z16, qi, qi, qi, m5c, m5c)):
            if case.degree == 1:
                xi = [_draw_rational(rng, case.primes, k, 3) * c]
            else:
                xi = [v * c for v in _draw_element(rng, 2, (2, 3, 4, 5, 6), k)]
            ops.append(CliOp("m", case, [], params={"xi": xi}))
        ops.append(CliOp("search", z16, ["--denom-bound", "8"],
                         params={"bound": 8}))
        ops.append(CliOp("search", qi, ["--denom-bound", "4"],
                         params={"bound": 4}))
        for case in (z16, qi):
            if case.degree == 1:
                xi = [_draw_rational(rng, case.primes, 0, 1, 35, 49) * c]
            else:
                xi = [v * c for v in _draw_element(rng, 2, (5,), 0)]
            ops.append(CliOp("orbit", case, [], params={"xi": xi}))
        for case in (qi, m5c):
            ops.append(CliOp("dual", case, []))
        for case in (qi, m5c):
            point = [F(rng.randint(-9, 9), rng.randint(2, 8)) for _ in range(2)]
            ops.append(CliOp("form", case, [], params={"point": point}))
        for case in (qi, self.cases["Z[sqrt-5]"].scaled(c)):
            ops.append(CliOp("info", case, []))
        ops = interleave([ops[:len(DECIDE)], ops[len(DECIDE):]])
        for i, op in enumerate(ops):
            params = {}
            if "xi" in op.params:
                params["xi"] = [str(v) for v in orc.coords_over(
                    self.built[(op.case.name, 1)].basis_pb, op.params["xi"])]
            if "point" in op.params:
                params["point"] = [str(v) for v in op.params["point"]]
            op.cfg = str(rdir / f"cfg{i:02d}.json")
            Path(op.cfg).write_text(json.dumps(self._config(op.case, params)))
            op.out = str(rdir / f"out{i:02d}.json")
        # each report that carries evidence is replayed right after it is made
        out = []
        for op in ops:
            out.append(op)
            if op.command in ("decide", "cover", "M", "m", "search"):
                out.append(CliOp("verify-cert", op.case, ["--cert", op.out],
                                 source=len(out) - 1, cfg=op.cfg,
                                 out=str(Path(op.out).with_name(
                                     "verify-" + Path(op.out).name))))
        return out

    def run_op(self, op: CliOp, workdir):
        argv = [sys.executable, self.entry, "--config", op.cfg, "--command",
                op.command, "--output", op.out] + op.args
        env = self.env
        if self.trace_dir is not None:
            env = dict(env, PERFBENCH_TRACE=str(Path(self.trace_dir) /
                                                f"{Path(op.out).stem}-"
                                                f"{len(self.rss_kb)}.json"))
        with open(Path(op.out).with_suffix(".err"), "wb") as err:
            proc = subprocess.Popen(argv, env=env, cwd=str(self.root),
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            # wait4 gives the child's peak RSS; the timer bounds the wait
            # (once the child is reaped, Popen.kill finds it gone and does
            # nothing)
            timed_out = threading.Event()

            def kill():
                timed_out.set()
                proc.kill()

            timer = threading.Timer(CLI_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb.append(usage.ru_maxrss)
        if timed_out.is_set():
            raise TimeoutError(f"{op.command} still running after "
                               f"{CLI_TIMEOUT_S} s, killed")
        return proc.returncode

    # -- checks ---------------------------------------------------------------

    def check_round(self, ops, results) -> dict:
        bad = {}
        rng = random.Random(f"cli-points:{self.seed}")
        for i, (op, code) in enumerate(zip(ops, results)):
            if code is None:
                continue
            try:
                msg = self._check(op, code, rng)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                msg = f"unreadable report: {exc!r}"
            if msg:
                bad[i] = f"{op.command} {op.case.name}: {msg}"
        return bad

    def _check(self, op, code, rng):
        if code != 0:
            return f"exit code {code}"
        report = json.loads(Path(op.out).read_text())
        if report.get("content_hash") != orc.content_hash(report):
            return "content_hash does not match the canonical payload"
        if report.get("exit_code") != code:
            return "exit code in the report differs"
        res, ev = report["result"], report.get("evidence")
        case, b = op.case, self.built[(op.case.name, 1)]
        cmd = op.command
        if cmd == "verify-cert":
            return None if res.get("replay") == "pass" else f"replay {res}"
        if cmd == "decide":
            _, _, _, _, verdict, value = next(d for d in DECIDE
                                              if d[0] == case.name)
            if res["verdict"] != verdict:
                return f"verdict {res['verdict']}, literature {verdict}"
            if verdict == "not_euclidean":
                return self._check_witness(case, b, ev, F(1), value)
            if F(ev["threshold"]) != 1:
                return "certificate threshold is not 1"
            return check_certificate_points(case, b, ev, rng)
        if cmd == "cover":
            if not res["covered"] or F(ev["threshold"]) != op.params["t"]:
                return "no certificate at the requested threshold"
            return check_certificate_points(case, b, ev, rng)
        if cmd == "M":
            lower, upper = F(res["lower"]), F(res["upper"])
            known = M_LITERATURE[case.name]
            if not lower <= known <= upper or upper - lower > op.params["gap"]:
                return f"bounds [{lower}, {upper}] against M = {known}"
            msg = self._check_witness(case, b, ev["witness"], None, lower)
            if msg is None and F(ev["certificate"]["threshold"]) != upper:
                msg = "certificate threshold differs from upper"
            return msg or check_certificate_points(case, b, ev["certificate"],
                                                   rng)
        if cmd == "m":
            want = own_minimum(case, op.params["xi"])
            if F(res["value"]) != want or F(ev["value"]) != want:
                return f"value {res['value']}, oracle {want}"
            return check_minimum(case, b, op.params["xi"], want,
                                 [F(c) for c in ev["shift"]])
        if cmd == "search":
            best = self._class_max(case, op.params["bound"])
            if F(res["value"]) != best:
                return f"search value {res['value']}, oracle {best}"
            return self._check_witness(case, b, ev, None, best)
        if cmd == "orbit":
            return self._check_orbit(case, b, op.params["xi"], res)
        if cmd == "dual":
            dk = orc.quadratic_discriminant(case.poly)[0]
            want = 1 / (case.ideal_norm() * abs(dk))
            got = F(res["dual_norm"])
            return None if got == want else f"dual norm {got}, expected {want}"
        if cmd == "form":
            a, bb, cc = res["form"]
            dk = orc.quadratic_discriminant(case.poly)[0]
            if bb * bb - 4 * a * cc != dk or not res["primitive"]:
                return f"form {res['form']} does not have discriminant {dk}"
            want = orc.definite_form_min(a, bb, cc, *op.params["point"])
            got = F(res["m_form"])
            return None if got == want else f"m_form {got}, oracle {want}"
        if cmd == "info":
            dk, index = orc.quadratic_discriminant(case.poly)
            sig = [0, 1] if dk < 0 else [2, 0]
            if (res["discriminant"], res["index"], res["signature"]) != \
                    (dk, index, sig):
                return f"info {res['discriminant']} {res['signature']}"
            return None
        return f"no check for {cmd}"

    def _check_witness(self, case, b, ev, at_least, exact):
        xi = orc.to_power(b.basis_pb, [F(c) for c in ev["xi"]])
        value = F(ev["value"])
        want = own_minimum(case, xi)
        if want is not None and want != value:
            return f"witness value {value}, oracle {want}"
        if at_least is not None and value < at_least:
            return f"witness value {value} below {at_least}"
        if exact is not None and value != exact:
            return f"witness value {value}, expected {exact}"
        return check_minimum(case, b, xi, value, [F(c) for c in ev["shift"]])

    def _class_max(self, case, bound):
        best = F(0)
        n = case.degree
        for m in range(1, bound + 1):
            if n == 1:
                points = [[F(k, m) * case.scale] for k in range(m)]
            else:
                basis = case.basis()
                points = [[F(u, m) * basis[0][j] + F(v, m) * basis[1][j]
                           for j in range(2)]
                          for u in range(m) for v in range(m)]
            for x in points:
                if any(x):
                    best = max(best, own_minimum(case, x))
        return best

    def _check_orbit(self, case, b, xi, res):
        if case.degree == 1:
            want = orc.rational_orbit(F(xi[0]) / case.scale, case.primes)
            got = {orc.reduce_rational(
                orc.to_power(b.basis_pb, [F(c) for c in e])[0] / case.scale,
                case.primes) for e in res["elements"]}
        else:
            def cls(v):
                cs = orc.coords_over(case.basis(), v)
                return tuple(c - (c.numerator // c.denominator) for c in cs)
            want, x = set(), list(xi)
            for _ in range(4):         # the units of Z[i]: powers of i
                want.add(cls(x))
                x = orc.mul(case.poly, case.unit or (0, 1), x)
            got = {cls(orc.to_power(b.basis_pb, [F(c) for c in e]))
                   for e in res["elements"]}
        if res["size"] != len(want) or got != want:
            return f"orbit of size {res['size']}, expected {len(want)}"
        return None

    def evidence_bytes(self, ops) -> int:
        total = 0
        for op in ops:
            if op.command == "verify-cert":
                continue
            ev = json.loads(Path(op.out).read_text()).get("evidence")
            if ev is not None:
                total += len(orc.canonical_bytes(ev))
        return total

    def rerun_identical(self, ops) -> str | None:
        """Run the first decide and the first m again and require
        byte-identical payloads."""
        for op in [next(o for o in ops if o.command == c) for c in ("decide", "m")]:
            again = CliOp(op.command, op.case, op.args, cfg=op.cfg,
                          out=op.out + ".again")
            try:
                self.run_op(again, None)
            except TimeoutError as exc:
                return f"{op.command} {op.case.name} rerun: {exc}"
            finally:
                self.rss_kb.pop()
            first = json.loads(Path(op.out).read_text())
            second = json.loads(Path(again.out).read_text())
            strip = ("timing",)
            if orc.canonical_bytes({k: v for k, v in first.items()
                                    if k not in strip}) != \
                    orc.canonical_bytes({k: v for k, v in second.items()
                                         if k not in strip}):
                return f"{op.command} {op.case.name}: payload differs on rerun"
        return None


WORKLOADS = {"minima": Minima, "bounds": Bounds, "cli-reports": CliReports}
