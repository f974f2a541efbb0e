"""The operations each workload times, and the checks on their outputs.

An in-process operation is one analysis of a representation: validate,
a dimension table over weights -2..60, the holomorphic and the cusp
generator profiles, and a duality report with n_max = 3.  The
representation is rebuilt from stored S/T arrays every time, so the
t_order cached property and the analysis cache in vvmf.dimensions never
turn a repetition into a cache hit.

A cli-cold operation is one `python -m vvmf ... --json` process.

Every output is checked against perfbench/oracles.py or against a
structural identity (duality sum, generator series, additivity over a
direct sum); nothing is compared with a stored copy of earlier output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

import oracles as O
from vvmf import catalog, cli, dimensions, modrep, series

W_MIN, W_MAX = -2, 60
WEIGHTS = range(W_MIN, W_MAX + 1)
N_MAX = 3
CONDITION = 10.0


# --- building inputs ------------------------------------------------------------


_TERM = re.compile(r"(p1|St)\((\d+)\)(?:\*k\^(\d+))?$|kappa\^(\d+)$")


def parse_term(term: str) -> tuple[str, int, int]:
    """('p1' | 'St' | 'kappa', modulus, twist) of one summand."""
    m = _TERM.match(term)
    if not m:
        raise ValueError(f"bad term {term!r}")
    if m.group(4):
        return "kappa", 1, int(m.group(4)) % 12
    return m.group(1), int(m.group(2)), int(m.group(3) or 0) % 12


def steinberg(p: int) -> modrep.ModularRepresentation:
    """p1(p) restricted to the vectors with coordinate sum zero.

    p1(p) is the trivial representation plus this complement, which is
    irreducible of degree p for a prime p.
    """
    rep = modrep.build_p1_permutation(p)
    d = rep.degree
    q, _ = np.linalg.qr(np.eye(d) - np.full((d, d), 1.0 / d))
    basis = q[:, : d - 1]
    return modrep.ModularRepresentation(basis.T @ rep.s_image @ basis,
                                        basis.T @ rep.t_image @ basis, f"St({p})")


def build(expr: str) -> modrep.ModularRepresentation:
    """The representation an expression names.

    Catalog expressions go through vvmf.catalog.resolve; moduli beyond
    the catalog and the St(p) summands are built from modrep directly.
    """
    try:
        return catalog.resolve(expr)
    except catalog.CatalogError:
        pass
    rep = None
    for term in expr.split("+"):
        kind, n, j = parse_term(term)
        if kind == "kappa":
            part = modrep.build_kappa_power(j)
        else:
            base = steinberg(n) if kind == "St" else modrep.build_p1_permutation(n)
            part = modrep.tensor_kappa(base, j)
        rep = part if rep is None else modrep.direct_sum(rep, part)
    return rep


def unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugator(rng, d, condition=CONDITION):
    """A seeded complex matrix with singular values geomspace(1, condition)."""
    return unitary(rng, d) @ np.diag(np.geomspace(1.0, condition, d)) @ unitary(rng, d)


# --- oracles per expression ---------------------------------------------------


def term_oracle(term: str, weights):
    """Oracle table of one summand, or None where no closed formula exists."""
    kind, n, j = parse_term(term)
    if kind == "kappa":
        return O.kappa_table(j, weights)
    if kind == "p1" and j == 0:
        return O.p1_table(n, weights)
    return None


def expr_oracle(expr: str, weights):
    tables = [term_oracle(t, weights) for t in expr.split("+")]
    return None if any(t is None for t in tables) else O.add_tables(*tables)


def expr_t_order(expr: str) -> int:
    orders = []
    for term in expr.split("+"):
        kind, n, j = parse_term(term)
        orders.append(O.twist_t_order(1 if kind == "kappa" else O.p1_t_order(n), j))
    return math.lcm(*orders)


def dual_expr(expr: str) -> str:
    """p1(N) and St(p) are real orthogonal, so the dual only inverts the twist."""
    out = []
    for term in expr.split("+"):
        kind, n, j = parse_term(term)
        j = (12 - j) % 12
        if kind == "kappa":
            out.append(f"kappa^{j}")
        else:
            out.append(f"{kind}({n})" + (f"*k^{j}" if j else ""))
    return "+".join(out)


def parity_degrees(expr: str) -> tuple[int, int]:
    """(even degree, odd degree): s^2 acts on a kappa^j twist by (-1)^j."""
    even = odd = 0
    for term in expr.split("+"):
        kind, n, j = parse_term(term)
        d = {"kappa": 1, "St": n}.get(kind) or _p1_degree(n)
        if j % 2:
            odd += d
        else:
            even += d
    return even, odd


def _p1_degree(n: int) -> int:
    return O.gamma0_invariants(n)["mu"]


_reference_tables: dict = {}


def vvmf_table(expr: str, w_min: int = 2) -> dict:
    """A vvmf table of a representation built here, for identity checks.

    Weights start at 2 so that no weight-one certification runs; the
    identities it serves only read weights of at least 3.  Computed once
    per process and kept, outside the timed region.
    """
    key = (expr, w_min)
    if key not in _reference_tables:
        rows = dimensions.dim_table(build(expr), w_min, W_MAX)
        _reference_tables[key] = {w: (m.value, s.value) for w, m, s in rows}
    return _reference_tables[key]


def dual_table(expr: str) -> dict:
    dual = dual_expr(expr)
    oracle = expr_oracle(dual, range(2, W_MAX + 1))
    return oracle if oracle is not None else vvmf_table(dual)


def additivity_oracle(expr: str):
    """Oracle for weights >= 2 of a sum holding St(p)*k^j terms.

    p1(p)*k^j = kappa^j + St(p)*k^j, so the Steinberg summand's table is
    vvmf's table of p1(p)*k^j less the kappa^j oracle.
    """
    weights = range(2, W_MAX + 1)
    tables = []
    for term in expr.split("+"):
        kind, n, j = parse_term(term)
        if kind == "St":
            whole = vvmf_table(f"p1({n})" + (f"*k^{j}" if j else ""))
            tables.append(O.sub_tables(whole, O.kappa_table(j, weights)))
        else:
            table = term_oracle(term, weights)
            if table is None:
                return None
            tables.append(table)
    return O.add_tables(*tables)


# --- in-process operations -----------------------------------------------------


@dataclass
class Spec:
    """One representation of an in-process workload."""

    label: str
    expr: str
    s: np.ndarray
    t: np.ndarray
    assertion: str
    degree: int


@dataclass
class Outcome:
    t_order: int
    table: dict
    statuses: dict
    profiles: dict
    duality: list


def analysis_steps(spec: Spec):
    """The timed operation as four steps, and a function giving its outcome.

    Module attributes are looked up at call time, so a traced run sees
    the tracer's wrappers.
    """
    state = {}

    def validate():
        rep = modrep.ModularRepresentation(spec.s, spec.t, spec.label, spec.assertion)
        state["rep"], state["t_order"] = rep, modrep.validate(rep).t_order

    def table():
        state["rows"] = dimensions.dim_table(state["rep"], W_MIN, W_MAX)

    def profiles():
        state["profiles"] = {}
        for kind in (series.HOLOMORPHIC, series.CUSP):
            try:
                counts = dict(series.generator_profile(state["rep"], kind).counts)
            except series.Weight1Indeterminate:
                counts = None
            state["profiles"][kind] = counts

    def duality():
        state["duality"] = series.duality_report(state["rep"], n_max=N_MAX).checks

    def outcome() -> Outcome:
        rows = state["rows"]
        return Outcome(
            state["t_order"],
            {w: (m.value, s.value) for w, m, s in rows},
            {w: (m.status == dimensions.EXACT, s.status == dimensions.EXACT) for w, m, s in rows},
            state["profiles"],
            [(c.name, c.status) for c in state["duality"]],
        )

    return [validate, table, profiles, duality], outcome


def analyse(spec: Spec) -> Outcome:
    steps, outcome = analysis_steps(spec)
    for step in steps:
        step()
    return outcome()


def check_outcome(spec: Spec, out: Outcome) -> list[str]:
    expr = spec.expr
    bad = []
    if out.t_order != expr_t_order(expr):
        bad.append(f"t order {out.t_order}, oracle {expr_t_order(expr)}")
    bad += O.check_lower_bounds(out.table, out.statuses)
    oracle = expr_oracle(expr, WEIGHTS)
    if oracle is None:
        oracle = additivity_oracle(expr)
    if oracle is not None:
        bad += O.check_table(out.table, oracle, out.statuses)
    d_even, d_odd = parity_degrees(expr)
    if d_even + d_odd != spec.degree:
        bad.append(f"parity degrees {d_even}+{d_odd} do not total {spec.degree}")
    bad += O.check_duality(out.table, dual_table(expr), d_even, d_odd, N_MAX)
    exact_weights = [w for w in range(0, W_MAX + 1) if all(out.statuses[w])]
    for kind, counts in out.profiles.items():
        if counts is None:
            # Weight1Indeterminate is the documented answer only when
            # weight one is reported as a lower bound.
            if all(out.statuses[1]):
                bad.append(f"{kind} profile indeterminate although weight one is exact")
        else:
            bad += O.check_profile(counts, kind, spec.degree, out.table, exact_weights)
    indeterminate = any(c is None for c in out.profiles.values())
    for name, status in out.duality:
        if name.startswith("generator-mirror"):
            may_skip = indeterminate
        else:
            may_skip = (d_even if name.startswith("even") else d_odd) == 0
        if status != "pass" and not (status == "skipped" and may_skip):
            bad.append(f"duality check {name}: {status}")
    return bad


# The representations of each in-process workload, with the reason each
# is there.  "@" marks a seeded GL_d conjugate of the named representation.
EXPRESSIONS = {
    # Small t orders, no odd part: row reduction, the h0 rank, the
    # signature and the duality sweep carry the time.
    "ladder": [
        "p1(7)", "p1(12)", "p1(16)", "p1(30)",
        "p1(7)*k^2", "p1(12)*k^2", "p1(16)*k^2", "p1(30)*k^2",
        "p1(7)*k^4", "p1(12)*k^4", "p1(16)*k^4", "p1(30)*k^4",
        "p1(7)+p1(12)", "@p1(12)", "@p1(30)",
    ],
    # t orders 315, 360, 1001, 2160 and 18900: the linear power search
    # and the quadratic eigenphase transform carry the time.  The last
    # one exceeds the default order cap of 4096 and fails every time.
    "large-t-order": [
        "p1(5)+p1(7)+p1(9)", "p1(8)+p1(9)+p1(5)", "p1(7)+p1(11)+p1(13)",
        "p1(16)+p1(27)+p1(5)", "p1(25)+p1(27)+p1(28)",
    ],
    # Odd parts of degree > 1: closure enumeration inside
    # certify_irreducible carries the time and the memory.
    "odd-weight-one": [
        "p1(4)*k^1", "p1(5)*k^3", "p1(6)*k^5", "p1(7)*k^1", "p1(8)*k^3",
        "p1(9)*k^7", "p1(10)*k^1", "p1(11)*k^5", "p1(12)*k^9", "p1(13)*k^1",
        "p1(16)*k^3", "St(5)*k^1", "St(7)*k^3", "kappa^1+kappa^11",
        "kappa^3+kappa^5+kappa^7",
    ],
}


def in_process_specs(workload: str, seed: int) -> list[Spec]:
    rng = np.random.default_rng(seed)
    specs = []
    for label in EXPRESSIONS[workload]:
        expr = label.lstrip("@")
        rep = build(expr)
        s, t = rep.s_image, rep.t_image
        if label.startswith("@"):
            a = conjugator(rng, rep.degree)
            a_inv = np.linalg.inv(a)
            s, t = a @ s @ a_inv, a @ t @ a_inv
        specs.append(Spec(label, expr, np.array(s), np.array(t),
                          rep.irreducible_assertion, rep.degree))
    return specs


# --- cli-cold operations -------------------------------------------------------


@dataclass
class CliOp:
    label: str
    argv: list
    check: Callable[[int, str], list]


def _zeta12_entry(value: complex) -> dict:
    """Exact cyclotomic encoding of 0 or a twelfth root of unity."""
    if abs(value) < 1e-12:
        return {"order": 1, "coeffs": ["0"]}
    j = round(12 * (math.atan2(value.imag, value.real) / (2 * math.pi))) % 12
    coeffs = ["0"] * 12
    coeffs[j] = "1"
    return {"order": 12, "coeffs": coeffs}


def write_repfiles(directory: str, seed: int) -> dict:
    """Representation files in both encodings; returns label -> path."""
    os.makedirs(directory, exist_ok=True)
    rng = np.random.default_rng(seed)
    paths = {}

    def dump(label, doc):
        path = os.path.join(directory, f"{label}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        paths[label] = path

    rep = build("p1(11)")
    a = conjugator(rng, rep.degree)
    a_inv = np.linalg.inv(a)
    pair = lambda m: [[[float(v.real), float(v.imag)] for v in row] for row in m]
    dump("conj-p1-11", {"degree": rep.degree, "entry_encoding": "complex",
                        "S": pair(a @ rep.s_image @ a_inv), "T": pair(a @ rep.t_image @ a_inv)})
    for label, expr in (("p1-9", "p1(9)"), ("p1-9-k4", "p1(9)*k^4"),
                        ("kappa-1-5", "kappa^1+kappa^5")):
        rep = build(expr)
        cyc = lambda m: [[_zeta12_entry(complex(v)) for v in row] for row in m]
        dump(label, {"degree": rep.degree, "entry_encoding": "cyclotomic",
                     "S": cyc(rep.s_image), "T": cyc(rep.t_image)})
    return paths


def t_phase_oracle(expr: str) -> list[str]:
    """T eigenphases from the cycle type of the t permutation, plus j/12."""
    phases = []
    for term in expr.split("+"):
        kind, n, j = parse_term(term)
        if kind == "kappa":
            cycles = [1]
        else:
            perm = np.argmax(modrep.build_p1_permutation(n).t_image.real, axis=0)
            seen, cycles = set(), []
            for start in range(len(perm)):
                length, i = 0, start
                while i not in seen:
                    seen.add(i)
                    i = perm[i]
                    length += 1
                if length:
                    cycles.append(length)
        for length in cycles:
            phases += [(Fraction(m, length) + Fraction(j, 12)) % 1 for m in range(length)]
    return [str(x) for x in sorted(phases)]


def _parse_json(rc: int, out: str, bad: list):
    if rc != 0:
        bad.append(f"exit code {rc}")
        return None
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        bad.append("output is not JSON")
        return None


def _dims_check(expr):
    def check(rc, out):
        bad = []
        doc = _parse_json(rc, out, bad)
        if doc is None:
            return bad
        rows = doc["weights"]
        table = {r["w"]: (r["dimM"], r["dimS"]) for r in rows}
        statuses = {r["w"]: (r["statusM"] == "exact", r["statusS"] == "exact") for r in rows}
        bad += O.check_lower_bounds(table, statuses)
        return bad + O.check_table(table, expr_oracle(expr, range(-2, 41)), statuses)
    return check


def _generators_check(expr, kind):
    def check(rc, out):
        bad = []
        doc = _parse_json(rc, out, bad)
        if doc is None:
            return bad
        counts = {int(w): c for w, c in doc["counts"].items()}
        oracle = expr_oracle(expr, range(0, W_MAX + 1))
        bad += O.check_profile(counts, kind, doc["degree"], oracle, range(0, W_MAX + 1))
        top = max(counts, default=0)
        if doc["numerator"] != [counts.get(w, 0) for w in range(top + 1)]:
            bad.append("numerator differs from the generator counts")
        return bad
    return check


def _duality_check(rc, out):
    bad = []
    doc = _parse_json(rc, out, bad)
    if doc is None:
        return bad
    for c in doc["checks"]:
        if c["status"] == "fail":
            bad.append(f"duality check {c['name']} failed")
    return bad


def _info_check(expr):
    def check(rc, out):
        bad = []
        doc = _parse_json(rc, out, bad)
        if doc is None:
            return bad
        if doc["t_order"] != expr_t_order(expr):
            bad.append(f"t order {doc['t_order']}, oracle {expr_t_order(expr)}")
        d_even, d_odd = parity_degrees(expr)
        blocks = [b for b in (doc["even"], doc["odd"]) if b is not None]
        got = sorted((Fraction(x) for b in blocks for x in b["t_phases"]))
        if d_odd:
            bad.append("info check only covers purely even representations")
        elif [str(x) for x in got] != t_phase_oracle(expr):
            bad.append("t phases differ from the cycle type of t")
        return bad
    return check


def _validate_check(expr):
    def check(rc, out):
        bad = []
        doc = _parse_json(rc, out, bad)
        if doc is None:
            return bad
        if not doc["relations_ok"] or doc["t_order"] != expr_t_order(expr):
            bad.append(f"validate reported {doc['relations_ok']}, t order {doc['t_order']}")
        return bad
    return check


def cli_ops(paths: dict) -> list[CliOp]:
    conj, p19, p19k4, k15 = (paths[k] for k in ("conj-p1-11", "p1-9", "p1-9-k4", "kappa-1-5"))
    holo, cusp = series.HOLOMORPHIC, series.CUSP
    return [
        CliOp("dims p1(5)", ["dims", "catalog:p1(5)", "--from", "-2", "--to", "40", "--json"],
              _dims_check("p1(5)")),
        CliOp("dims kappa^2+kappa^7", ["dims", "catalog:kappa^2+kappa^7", "--from", "-2", "--to", "40",
                                       "--json"], _dims_check("kappa^2+kappa^7")),
        CliOp("dims file conj p1(11)", ["dims", conj, "--from", "-2", "--to", "40", "--json"],
              _dims_check("p1(11)")),
        CliOp("dims file cyc p1(9)", ["dims", p19, "--from", "-2", "--to", "40", "--json"],
              _dims_check("p1(9)")),
        CliOp("generators p1(6)", ["generators", "catalog:p1(6)", "--json"],
              _generators_check("p1(6)", holo)),
        CliOp("generators cusp file conj p1(11)", ["generators", conj, "--cusp", "--json"],
              _generators_check("p1(11)", cusp)),
        CliOp("duality p1(7)*k^2", ["duality", "catalog:p1(7)*k^2", "--json"], _duality_check),
        CliOp("duality file cyc kappa^1+kappa^5", ["duality", k15, "--json"], _duality_check),
        CliOp("info p1(7)*k^4", ["info", "catalog:p1(7)*k^4", "--json"], _info_check("p1(7)*k^4")),
        CliOp("info file cyc p1(9)*k^4", ["info", p19k4, "--json"], _info_check("p1(9)*k^4")),
        CliOp("validate file conj p1(11)", ["validate", conj, "--json"], _validate_check("p1(11)")),
        CliOp("validate p1(5)+kappa^3", ["validate", "catalog:p1(5)+kappa^3", "--json"],
              _validate_check("p1(5)+kappa^3")),
    ]


def cli_env(src_dir: str) -> dict:
    """The caller's environment with src/ on the path and no VVMF_* overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VVMF_")}
    env["PYTHONPATH"] = src_dir + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_process_steps(op: CliOp, env: dict, cwd: str):
    """One `python -m vvmf` process as a single step, and its (exit code, stdout)."""
    state = {}

    def run():
        proc = subprocess.run([sys.executable, "-m", "vvmf", *op.argv], capture_output=True,
                              text=True, env=env, cwd=cwd, timeout=120)
        state["out"] = (proc.returncode, proc.stdout)

    return [run], lambda: state["out"]


def cli_in_process_steps(op: CliOp):
    """The same command through vvmf.cli.main in this process (traced runs)."""
    state = {}

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
        state["out"] = (rc, out.getvalue())

    return [run], lambda: state["out"]
