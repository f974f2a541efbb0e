"""Command line front end.

Representations come either from JSON files or from catalog
expressions prefixed with ``catalog:``.  All snapped quantities are
printed as integers; weight-one rows whose value is only a lower bound
carry a trailing ``+``.

Exit codes: 0 on success, 1 on usage or file format problems, 2 when a
representation fails validation or a requested computation cannot be
completed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from . import catalog, repfile
from .dimensions import EXACT, Analysis, dim_table
from .linalg import Settings
from .modrep import ModularRepresentation, ValidationReport, validate
from .series import CUSP, HOLOMORPHIC, duality_report, generator_profile

_USAGE_ERRORS = (repfile.ParseError, catalog.CatalogError, OSError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _load_source(source: str, settings: Settings) -> tuple[ModularRepresentation, ValidationReport]:
    """The representation a source names, validated once."""
    if source.startswith("catalog:"):
        rep = catalog.resolve(source[len("catalog:"):])
    else:
        rep = repfile.parse_rep(source, settings, run_validate=False)
    return rep, validate(rep, settings)


def _mark(result) -> str:
    return str(result.value) + ("" if result.status == EXACT else "+")


def _part_info(part, inv):
    """The info block of a parity part; an odd one shows its partner's signature, no h0."""
    info = {
        "degree": part.degree,
        "signature" if inv.parity == 1 else "partner_signature": asdict(inv.sig),
        "t_phases": [str(x) for x in inv.exp.phases],
        "trace_lambda": str(inv.exp.trace_lambda),
        "lambda_plus": inv.lambda_plus,
        "lambda_minus": inv.lambda_minus,
        "h0": inv.h0,
        "gamma": {str(k): inv.gamma(k) for k in range(-6, 12)},
    }
    return {key: value for key, value in info.items() if value is not None}


def _print_invariant_block(label, data):
    print(f"{label}: degree {data['degree']}")
    sig = data.get("signature") or data.get("partner_signature")
    print(f"  signature: alpha={sig['alpha']} beta1={sig['beta1']} beta2={sig['beta2']}")
    print(f"  t phases: {' '.join(data['t_phases'])}")
    print(f"  trace of log t: {data['trace_lambda']}")
    h0 = f"   h0 {data['h0']}" if "h0" in data else ""
    print(f"  lambda+ {data['lambda_plus']}   lambda- {data['lambda_minus']}{h0}")
    gammas = " ".join(str(data["gamma"][str(k)]) for k in range(-6, 12))
    print(f"  gamma(-6..11): {gammas}")


def _cmd_validate(args, settings) -> int:
    rep, report = _load_source(args.source, settings)
    if args.json:
        doc = {"rep": rep.name, "degree": rep.degree, "relations_ok": report.relations_ok,
               "t_order": report.t_order, "max_residual": report.max_residual}
        print(json.dumps(doc, indent=2))
        return 0
    print(f"rep {rep.name}: relations ok, t order {report.t_order}, "
          f"max residual {report.max_residual:.2e}")
    return 0


def _cmd_info(args, settings) -> int:
    rep, report = _load_source(args.source, settings)
    a = Analysis.of(rep, settings)
    doc = {"rep": rep.name, "degree": rep.degree, "t_order": report.t_order}
    for key, part in (("even", a.split.even_part), ("odd", a.split.odd_part)):
        doc[key] = _part_info(part, a.invariants(key == "odd")) if part.degree else None
    if args.json:
        print(json.dumps(doc, indent=2))
        return 0
    print(f"rep {rep.name}: degree {rep.degree}, t order {report.t_order}")
    for label, block in (("even part", doc["even"]), ("odd part", doc["odd"])):
        if block is None:
            print(f"{label}: none")
        else:
            _print_invariant_block(label, block)
    return 0


def _cmd_dims(args, settings) -> int:
    if args.from_weight > args.to_weight:
        print(f"vvmf dims: empty weight range {args.from_weight}..{args.to_weight}",
              file=sys.stderr)
        return 1
    rep, _ = _load_source(args.source, settings)
    rows = dim_table(rep, args.from_weight, args.to_weight, settings)
    if args.json:
        doc = {"rep": rep.name, "degree": rep.degree,
               "weights": [{"w": w, "dimM": m.value, "dimS": s.value,
                            "statusM": m.status, "statusS": s.status} for w, m, s in rows]}
        print(json.dumps(doc, indent=2))
        return 0
    print(f"rep {rep.name}: degree {rep.degree}")
    print(f"{'weight':>6}  {'dim M':>6}  {'dim S':>6}")
    for w, m, s in rows:
        print(f"{w:>6}  {_mark(m):>6}  {_mark(s):>6}")
    return 0


def _cmd_generators(args, settings) -> int:
    rep, _ = _load_source(args.source, settings)
    kind = CUSP if args.cusp else HOLOMORPHIC
    profile = generator_profile(rep, kind, settings)
    numerator = [profile.counts.get(w, 0) for w in range(max(profile.counts, default=0) + 1)]
    if args.json:
        doc = {"rep": rep.name, "degree": rep.degree, "kind": kind,
               "counts": {str(w): c for w, c in sorted(profile.counts.items())},
               "numerator": numerator}
        print(json.dumps(doc, indent=2))
        return 0
    print(f"rep {rep.name}: degree {rep.degree}, {kind} module")
    print(f"{'weight':>6}  {'generators':>10}")
    for w in sorted(profile.counts):
        print(f"{w:>6}  {profile.counts[w]:>10}")
    print(f"numerator coefficients (z^0..): {' '.join(str(c) for c in numerator)}")
    print("denominator: (1-z^4)(1-z^6)")
    return 0


def _cmd_duality(args, settings) -> int:
    rep, _ = _load_source(args.source, settings)
    report = duality_report(rep, args.nmax, settings)
    if args.json:
        doc = {"rep": report.rep_name, "dual": report.dual_name, "n_max": report.n_max,
               "checks": [{"name": c.name, "status": c.status,
                           "counterexamples": [list(x) if isinstance(x, tuple) else x
                                               for x in c.counterexamples],
                           "note": c.note} for c in report.checks]}
        print(json.dumps(doc, indent=2))
    else:
        print(f"rep {report.rep_name} against {report.dual_name} (n up to {report.n_max})")
        for c in report.checks:
            detail = c.note
            if c.counterexamples:
                detail = f"counterexamples: {list(c.counterexamples)}"
            print(f"  {c.name:<22} {c.status:<8} {detail}".rstrip())
    return 0 if report.ok else 2


def _cmd_catalog(args, settings) -> int:
    if args.action == "list":
        for name in catalog.catalog_names():
            print(name)
        return 0
    raise AssertionError(args.action)


def _build_parser() -> _Parser:
    parser = _Parser(prog="vvmf",
                     description="Dimensions and generator weights of vector-valued "
                                 "modular form spaces from finite generator images.")
    # argparse converts a string default with type, so a bad variable is a
    # usage error like a bad flag; an empty one counts as unset.
    parser.add_argument("--tolerance", type=float,
                        default=os.environ.get("VVMF_TOLERANCE") or None,
                        help="absolute comparison tolerance (default 1e-9)")
    parser.add_argument("--order-cap", type=int,
                        default=os.environ.get("VVMF_ORDER_CAP") or None,
                        help="largest t eigenphase denominator (default 4096)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the group relations and t order")
    p.add_argument("source", help="representation file or catalog:EXPR")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="print parity parts and their invariants")
    p.add_argument("source")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("dims", help="dimension table over a weight range")
    p.add_argument("source")
    p.add_argument("--from", dest="from_weight", type=int, required=True, metavar="W1")
    p.add_argument("--to", dest="to_weight", type=int, required=True, metavar="W2")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("generators", help="free generator weights and Hilbert numerator")
    p.add_argument("source")
    p.add_argument("--cusp", action="store_true", help="cusp module instead of holomorphic")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("duality", help="verify identities against the dual representation")
    p.add_argument("source")
    p.add_argument("--nmax", type=int, default=3, help="sweep depth (default 3)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_duality)

    p = sub.add_parser("catalog", help="built-in representations")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    given = {"eps": args.tolerance, "order_cap": args.order_cap}
    try:
        settings = Settings(**{k: v for k, v in given.items() if v is not None})
    except ValueError as err:
        print(f"vvmf: error: {err}", file=sys.stderr)
        return 1
    try:
        return args.func(args, settings)
    except _USAGE_ERRORS as err:
        print(f"vvmf: error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"vvmf: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
