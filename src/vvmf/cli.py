"""Command line front end.

Representations come either from JSON files or from catalog
expressions prefixed with ``catalog:``.  All snapped quantities are
printed as integers; weight-one rows whose value is only a lower bound
carry a trailing ``+``.

Each subcommand builds one document and the text lines rendered from
its fields.  ``main`` alone writes standard output: the document as
two-space indented JSON under ``--json``, the lines otherwise, so the
two views cannot disagree.  The settings come from ``--tolerance`` and
``--order-cap`` alone.

Exit codes: 0 on success, 1 on usage or file format problems, 2 when a
representation fails validation or a requested computation cannot be
completed, and 141 (the status of a process ended by SIGPIPE) when
standard output is closed before everything is written, as by
``vvmf dims ... | head -1``; that case prints nothing on standard error.
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


class _UnreadableFile(Exception):
    """A representation file could not be opened or read."""


class _Refusal(Exception):
    """A request refused before any work; its message is printed as it is."""


_USAGE_ERRORS = (repfile.ParseError, catalog.CatalogError, _UnreadableFile)
# 128 + SIGPIPE, as a shell reports a process that the signal ended.
_BROKEN_PIPE_STATUS = 141


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
        try:
            rep = repfile.parse_rep(source)
        except OSError as err:
            raise _UnreadableFile(err) from err
    return rep, validate(rep, settings)


def _mark(value, status) -> str:
    return str(value) + ("" if status == EXACT else "+")


def _part_info(part, inv):
    """The info block of a parity part; an odd one shows its partner's signature, no h0."""
    info = {
        "degree": part.degree,
        "signature" if inv.parity == 1 else "partner_signature": asdict(inv.sig),
        "t_phases": [str(x) for x in inv.phases],
        "trace_lambda": str(inv.sig.trace_lambda),
        "lambda_plus": inv.lambda_plus,
        "lambda_minus": inv.lambda_minus,
        "h0": inv.h0,
        "gamma": {str(k): inv.gamma(k) for k in range(-6, 12)},
    }
    return {key: value for key, value in info.items() if value is not None}


def _invariant_lines(label, data) -> list[str]:
    if data is None:
        return [f"{label}: none"]
    sig = data.get("signature") or data.get("partner_signature")
    h0 = f"   h0 {data['h0']}" if "h0" in data else ""
    return [f"{label}: degree {data['degree']}",
            f"  signature: alpha={sig['alpha']} beta1={sig['beta1']} beta2={sig['beta2']}",
            f"  t phases: {' '.join(data['t_phases'])}",
            f"  trace of log t: {data['trace_lambda']}",
            f"  lambda+ {data['lambda_plus']}   lambda- {data['lambda_minus']}{h0}",
            f"  gamma(-6..11): {' '.join(str(g) for g in data['gamma'].values())}"]


def _cmd_validate(args, settings):
    rep, report = _load_source(args.source, settings)
    doc = {"rep": rep.name, "degree": rep.degree, "relations_ok": report.relations_ok,
           "t_order": report.t_order, "max_residual": report.max_residual}
    return doc, [f"rep {doc['rep']}: relations ok, t order {doc['t_order']}, "
                 f"max residual {doc['max_residual']:.2e}"]


def _cmd_info(args, settings):
    rep, report = _load_source(args.source, settings)
    a = Analysis.of(rep, settings)
    doc = {"rep": rep.name, "degree": rep.degree, "t_order": report.t_order}
    for key, part, inv in zip(("even", "odd"), (a.split.even_part, a.split.odd_part), a.invariants):
        doc[key] = _part_info(part, inv) if inv else None
    return doc, [f"rep {doc['rep']}: degree {doc['degree']}, t order {doc['t_order']}",
                 *_invariant_lines("even part", doc["even"]),
                 *_invariant_lines("odd part", doc["odd"])]


def _cmd_dims(args, settings):
    if args.from_weight > args.to_weight:
        raise _Refusal(f"vvmf dims: empty weight range {args.from_weight}..{args.to_weight}")
    rep, _ = _load_source(args.source, settings)
    rows = dim_table(rep, args.from_weight, args.to_weight, settings)
    doc = {"rep": rep.name, "degree": rep.degree,
           "weights": [{"w": w, "dimM": m.value, "dimS": s.value,
                        "statusM": m.status, "statusS": s.status} for w, m, s in rows]}
    return doc, [f"rep {doc['rep']}: degree {doc['degree']}",
                 f"{'weight':>6}  {'dim M':>6}  {'dim S':>6}",
                 *(f"{r['w']:>6}  {_mark(r['dimM'], r['statusM']):>6}  "
                   f"{_mark(r['dimS'], r['statusS']):>6}" for r in doc["weights"])]


def _cmd_generators(args, settings):
    rep, _ = _load_source(args.source, settings)
    kind = CUSP if args.cusp else HOLOMORPHIC
    counts = generator_profile(rep, kind, settings).counts
    doc = {"rep": rep.name, "degree": rep.degree, "kind": kind,
           "counts": {str(w): c for w, c in sorted(counts.items())},
           "numerator": [counts.get(w, 0) for w in range(max(counts, default=0) + 1)]}
    return doc, [f"rep {doc['rep']}: degree {doc['degree']}, {kind} module",
                 f"{'weight':>6}  {'generators':>10}",
                 *(f"{w:>6}  {c:>10}" for w, c in doc["counts"].items()),
                 f"numerator coefficients (z^0..): {' '.join(map(str, doc['numerator']))}",
                 "denominator: (1-z^4)(1-z^6)"]


def _cmd_duality(args, settings):
    if args.nmax < 1:
        raise _Refusal(f"vvmf duality: --nmax must be at least 1, got {args.nmax}")
    rep, _ = _load_source(args.source, settings)
    report = duality_report(rep, args.nmax, settings)
    doc = {"rep": report.rep_name, "dual": report.dual_name, "n_max": report.n_max,
           "checks": [asdict(c) for c in report.checks]}
    lines = [f"rep {doc['rep']} against {doc['dual']} (n up to {doc['n_max']})"]
    for c in doc["checks"]:
        detail = c["note"]
        if c["counterexamples"]:
            detail = f"counterexamples: {list(c['counterexamples'])}"
        lines.append(f"  {c['name']:<22} {c['status']:<8} {detail}".rstrip())
    return doc, lines, 0 if report.ok else 2


def _cmd_catalog(args, settings):
    names = catalog.catalog_names()
    return names, names


def _build_parser() -> _Parser:
    parser = _Parser(prog="vvmf",
                     description="Dimensions and generator weights of vector-valued "
                                 "modular form spaces from finite generator images.")
    parser.add_argument("--tolerance", type=float,
                        help="absolute comparison tolerance (default 1e-9)")
    parser.add_argument("--order-cap", type=int,
                        help="largest t eigenphase denominator (default 4096)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the group relations and t order")
    p.add_argument("source", help="representation file or catalog:EXPR")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("info", help="print parity parts and their invariants")
    p.add_argument("source")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("dims", help="dimension table over a weight range")
    p.add_argument("source")
    p.add_argument("--from", dest="from_weight", type=int, required=True, metavar="W1")
    p.add_argument("--to", dest="to_weight", type=int, required=True, metavar="W2")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("generators", help="free generator weights and Hilbert numerator")
    p.add_argument("source")
    p.add_argument("--cusp", action="store_true", help="cusp module instead of holomorphic")
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("duality", help="verify identities against the dual representation")
    p.add_argument("source")
    p.add_argument("--nmax", type=int, default=3, help="sweep depth, at least 1 (default 3)")
    p.set_defaults(func=_cmd_duality)
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")

    p = sub.add_parser("catalog", help="built-in representations")
    p.add_argument("action", choices=["list"])
    p.set_defaults(func=_cmd_catalog, json=False)
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
        doc, lines, *status = args.func(args, settings)
        print(json.dumps(doc, indent=2) if args.json else "\n".join(lines))
        sys.stdout.flush()
        return status[0] if status else 0
    except BrokenPipeError:
        # The reader has gone.  Python flushes standard output once more at
        # exit, so point it at the null device to keep that flush quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _BROKEN_PIPE_STATUS
    except _Refusal as err:
        print(err, file=sys.stderr)
        return 1
    except _USAGE_ERRORS as err:
        print(f"vvmf: error: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"vvmf: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
