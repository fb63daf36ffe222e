"""Command-line front end: verification commands and report emission.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 malformed
input or usage.  Reports are deterministic for a fixed seed; rationals are
printed as p/q strings.  A command imports the modules that not every
command uses (``graded``, ``endo``, ``ftalgebra``, ``bv``) when it runs, so
``verify-operad`` and ``dual-table`` load none of them.
"""
from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction

from .axioms import verify_axioms
from .errors import OperadForgeError, Unstable
from .operads import basis, colours, dual_compose, dual_contract

PASS, FAIL, USAGE = 0, 1, 2


def _emit(doc, fmt, text_lines):
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_verify_operad(args) -> int:
    report = verify_axioms(
        args.kind, args.max_n, args.max_genus2,
        extended=args.allow_unstable_extension,
    )
    doc = report.to_json()
    lines = [
        f"operad {args.kind}: checked {report.checked} axiom instances "
        f"within arity {args.max_n}, doubled genus {args.max_genus2}",
        "all axioms hold" if report.passed else f"{len(report.failures)} failures",
    ]
    lines += [
        f"  axiom {f['axiom']}: {f['instance']}: {f['lhs']} != {f['rhs']}"
        for f in doc["failures"][:50]
    ]
    _emit(doc, args.format, lines)
    return PASS if report.passed else FAIL


def cmd_verify_endo(args) -> int:
    from .endo import verify_twisted_axioms
    from .graded import canonical_space, space_from_json

    if args.input:
        with open(args.input) as fh:
            space = space_from_json(json.load(fh))
    else:
        space = canonical_space(args.dim, with_differential=True)
    _require_valid(space)
    report = verify_twisted_axioms(
        space, max_n=args.max_n, samples=args.samples, seed=args.seed
    )
    doc = report.to_json()
    lines = [
        f"twisted endomorphism operad on a dimension {space.dim} space: "
        f"{report.checked} instances checked",
        "all signed axioms hold" if report.passed
        else f"{len(report.failures)} failures",
    ]
    lines += [f"  axiom {f['axiom']}: {f['instance']}" for f in report.failures]
    _emit(doc, args.format, lines)
    return PASS if report.passed else FAIL


def _require_valid(*spaces):
    """A space that breaks an invariant is a usage error (exit 2)."""
    from .graded import validate_space

    bad = [v for space in spaces if space is not None for v in validate_space(space)]
    if bad:
        raise OperadForgeError("invalid space: " + "; ".join(bad))


def _load_algebra(path):
    from . import ftalgebra as ft

    with open(path) as fh:
        data = ft.algebra_from_json(json.load(fh))
    _require_valid(data.space, data.closed_space)
    return data


def cmd_check_algebra(args) -> int:
    from . import ftalgebra as ft
    from .graded import format_rational

    data = _load_algebra(args.input)
    keys = ft.enumerate_keys(data.kind, args.max_n, args.max_genus2)
    nonzero = []
    for key in keys:
        res = ft.ft_residual(data, key)
        for w, v in sorted(res.entries.items()):
            nonzero.append(
                {"key": ft.key_to_json(key), "index": list(w),
                 "value": format_rational(v)}
            )
    doc = {
        "kind": data.kind,
        "keys_checked": [ft.key_to_json(k) for k in keys],
        "nonzero": nonzero,
    }
    lines = [
        f"{data.kind} algebra: {len(keys)} defining equations checked "
        f"(arity <= {args.max_n}, doubled genus <= {args.max_genus2})",
        "all residuals vanish" if not nonzero
        else f"{len(nonzero)} nonzero residual coefficients",
    ]
    lines += [
        f"  {e['key']} at {e['index']}: {e['value']}" for e in nonzero[:50]
    ]
    _emit(doc, args.format, lines)
    return PASS if not nonzero else FAIL


def cmd_master_eq(args) -> int:
    from . import bv, ftalgebra as ft
    from .graded import format_rational

    data = _load_algebra(args.input)
    if args.form == "raw":
        residual = bv.master_residual(bv.generating_function(data))
    elif args.form == "sprime":
        if data.kind not in ("loop", "cyclic_ainfty"):
            print("the quadratic substitution needs a loop or cyclic algebra",
                  file=sys.stderr)
            return USAGE
        Sp = bv.s_prime(bv.generating_function(data))
        residual = bv.bv_bracket(Sp, Sp).scaled(Fraction(1, 2))
        if data.kind == "loop":
            residual = residual.plus(bv.bv_delta(Sp))
        residual.prune()
    else:  # herbst
        try:
            bv._check_minimal(data)  # kind and d = 0, before any key is read
            entries = []
            for key in sorted(data.maps, key=repr):
                if key.bseq[0] > 0:
                    continue
                n = ft.key_arity(key)
                for w in itertools.product(range(data.space.dim), repeat=n):
                    v = bv._herbst_at(data, key.bseq, key.g, w)
                    if v:
                        entries.append((key, w, v))
        except OperadForgeError as exc:
            print(str(exc), file=sys.stderr)
            return USAGE
        doc = {
            "form": "herbst",
            "nonzero": [
                {"key": ft.key_to_json(k), "index": list(w),
                 "value": format_rational(v)}
                for k, w, v in entries
            ],
        }
        lines = ["block-indexed relation residuals:",
                 "all vanish" if not entries else f"{len(entries)} nonzero"]
        lines += [f"  {k} at {list(w)}: {v}" for k, w, v in entries[:50]]
        _emit(doc, args.format, lines)
        return PASS if not entries else FAIL
    rows = []
    for key in sorted(residual.terms, key=repr):
        for w, v in sorted(residual.terms[key].items()):
            rows.append(
                {"genus2": ft.key_genus2(key), "key": ft.key_to_json(key),
                 "phi_word": list(w), "value": format_rational(v)}
            )
    doc = {"form": args.form, "nonzero": rows}
    lines = [f"master equation residual ({args.form} form):",
             "all coefficients vanish" if not rows else f"{len(rows)} nonzero"]
    lines += [
        f"  genus2={r['genus2']} {r['key']} phi{r['phi_word']}: {r['value']}"
        for r in rows[:50]
    ]
    _emit(doc, args.format, lines)
    return PASS if not rows else FAIL


def cmd_dual_table(args) -> int:
    labels = range(1, args.n + 1)
    closed = range(1, args.closed + 1)
    try:
        els = basis(args.kind, labels, args.genus2, closed=closed,
                    extended=args.allow_unstable_extension)
    except Unstable as exc:
        print(str(exc), file=sys.stderr)
        return USAGE
    rows = []
    for z in els:
        for colour in colours(args.kind):
            dc = dual_contract(args.kind, z, colour=colour,
                               extended=args.allow_unstable_extension)
            do = dual_compose(args.kind, z, colour=colour,
                              extended=args.allow_unstable_extension)
            rows.append({
                "element": repr(z),
                "colour": colour,
                "contraction_preimages": sorted(repr(x) for x in dc),
                "gluing_preimages": sorted(f"{x!r} (x) {y!r}" for x, y in do),
            })
    doc = {"kind": args.kind, "n": args.n, "genus2": args.genus2, "table": rows}
    lines = []
    for r in rows:
        lines.append(f"{r['element']}  [{r['colour']}]")
        lines.append(f"  contraction adjoint: {len(r['contraction_preimages'])} terms")
        lines += [f"    {t}" for t in r["contraction_preimages"]]
        lines.append(f"  gluing adjoint: {len(r['gluing_preimages'])} terms")
        lines += [f"    {t}" for t in r["gluing_preimages"]]
    _emit(doc, args.format, lines)
    return PASS


def non_negative_int(text) -> int:
    """Argparse type for bounds and sizes: a negative value is a usage error
    (exit 2), not an empty range that reports every check as passing."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="operad-forge",
        description="exact verification of surface operads, their algebras "
                    "and master equations",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")

    sp = sub.add_parser("verify-operad", help="check the eight structure axioms")
    sp.add_argument("--kind", required=True, choices=("qc", "qo", "ass", "qoc"))
    sp.add_argument("--max-n", type=non_negative_int, default=4)
    sp.add_argument("--max-genus2", type=non_negative_int, default=4)
    sp.add_argument("--allow-unstable-extension", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_verify_operad)

    sp = sub.add_parser("verify-endo", help="check the signed axioms on random "
                                            "functionals")
    sp.add_argument("--input", help="space description (JSON)")
    sp.add_argument("--dim", type=int, default=2)
    sp.add_argument("--max-n", type=non_negative_int, default=4)
    sp.add_argument("--samples", type=non_negative_int, default=50)
    sp.add_argument("--seed", type=int, default=0)
    common(sp)
    sp.set_defaults(func=cmd_verify_endo)

    sp = sub.add_parser("check-algebra", help="evaluate the defining equations "
                                              "of an algebra file")
    sp.add_argument("--input", required=True)
    sp.add_argument("--max-n", type=non_negative_int, default=4)
    sp.add_argument("--max-genus2", type=non_negative_int, default=4)
    common(sp)
    sp.set_defaults(func=cmd_check_algebra)

    sp = sub.add_parser("master-eq", help="evaluate the master equation residual")
    sp.add_argument("--input", required=True)
    sp.add_argument("--form", choices=("raw", "sprime", "herbst"), default="raw")
    common(sp)
    sp.set_defaults(func=cmd_master_eq)

    sp = sub.add_parser("dual-table", help="print the dual structure map "
                                           "expansions of a component")
    sp.add_argument("--kind", required=True, choices=("qc", "qo", "ass", "qoc"))
    sp.add_argument("--n", type=non_negative_int, required=True)
    sp.add_argument("--genus2", type=non_negative_int, required=True)
    sp.add_argument("--closed", type=non_negative_int, default=0)
    sp.add_argument("--allow-unstable-extension", action="store_true")
    common(sp)
    sp.set_defaults(func=cmd_dual_table)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OperadForgeError as exc:
        print(str(exc), file=sys.stderr)
        return USAGE
    except OSError as exc:  # a missing file, a directory, no permission
        print(str(exc), file=sys.stderr)
        return USAGE
    except (KeyError, ValueError, json.JSONDecodeError) as exc:
        print(f"malformed input: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
