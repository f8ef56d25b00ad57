"""Command-line interface.

Exit codes: 0 success, 1 parse/input errors, 2 hypothesis violations
(including inconclusive certifications), 3 budget, precision or
memory exhaustion.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from json.encoder import encode_basestring_ascii

from .errors import (
    BudgetExceeded,
    ExpressionError,
    HypothesisViolation,
    KnotcertError,
    PrecisionExhausted,
    ProfileError,
    UnsupportedKnotError,
)
from .knots import alexander_polynomial, evaluate, parse_knot
from .signatures import CirclePoint, levine_tristram, signature_function
from .covers import cover_presentation, whitehead_cover
from .subgroups import enumerate_subgroups
from .obstruction import CGProfile
from .certify import certify_independence
from . import __version__


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage problems; those are parse errors here
    def error(self, message):
        raise ExpressionError(message)


def _build_parser():
    p = _Parser(prog="knotcert", description=__doc__)
    p.add_argument("--version", action="version", version=f"knotcert {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", help="write the report to this file")
    common.add_argument("--format", choices=("text", "json"), default=None)

    ps = sub.add_parser("sig", parents=[common],
                        help="Levine-Tristram signature of a knot expression")
    ps.add_argument("expr")
    ps.add_argument("--at", help="rational point j/p of the circle")
    ps.add_argument("--bound", type=int, default=200,
                    help="denominator bound recorded on full step functions")

    pa = sub.add_parser("alex", parents=[common],
                        help="normalized Alexander polynomial")
    pa.add_argument("expr")

    pc = sub.add_parser("cover", parents=[common],
                        help="double branched cover homology and linking form")
    pc.add_argument("expr")

    pw = sub.add_parser("whitehead", parents=[common],
                        help="cover data of the twisted Whitehead pattern P(a,b)")
    pw.add_argument("a", type=int)
    pw.add_argument("b", type=int)

    pg = sub.add_parser("subgroups", parents=[common],
                        help="enumerate subgroups of (Z_q)^N of a given order")
    pg.add_argument("modulus", type=int, help="prime power q = p^k")
    pg.add_argument("rank", type=int, help="number of cyclic factors N")
    pg.add_argument("order", type=int, help="subgroup order to enumerate")
    pg.add_argument("--limit", type=int, default=100,
                    help="print at most this many generator sets")

    pcert = sub.add_parser("certify", parents=[common],
                           help="linear-independence certificate for a family")
    pcert.add_argument("--pattern", required=True,
                       help="pattern cover, e.g. whitehead:1,1")
    pcert.add_argument("--profile", default="zero",
                       help="zero | bound:B | file:PATH")
    pcert.add_argument("--family", required=True,
                       help="semicolon-separated knot expressions")
    pcert.add_argument("--mode", choices=("ordering", "exhaustive"),
                       default="ordering")
    pcert.add_argument("--budget", type=int, default=6,
                       help="max total companion count in exhaustive mode")
    pcert.add_argument("--per-side-cap", type=int, default=None,
                       help="max companion count on each side (default: none)")
    pcert.add_argument("--max-group-order", type=int, default=3 ** 6)
    pcert.add_argument("--witness-cap", type=int, default=200)
    pcert.add_argument("--self-annihilating", action="store_true",
                       help="restrict the sweep to self-annihilating subgroups")

    pd = sub.add_parser("demo", parents=[common],
                        help="end-to-end certificate for multiples of a torus knot")
    pd.add_argument("--a", type=int, default=1)
    pd.add_argument("--b", type=int, default=1)
    pd.add_argument("--count", type=int, default=3,
                    help="family size (multiples chosen by recurrence)")
    pd.add_argument("--budget", type=int, default=6)
    pd.add_argument("--per-side-cap", type=int, default=3)
    pd.add_argument("--mode", choices=("ordering", "exhaustive"),
                    default="exhaustive")
    return p


def _json_indent2(obj, pad="\n"):
    """json.dumps(obj, sort_keys=True, indent=2), byte for byte.

    The json module encodes with indent in pure Python; this writes the
    str-keyed dicts, lists, strs, ints, bools and None of a report
    directly, with one join per all-int list.  pad is the newline and
    indent that precede the closing bracket of obj.  Anything else goes
    to json.dumps, re-indented: with ensure_ascii its only newlines are
    the ones between items.
    """
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    inner = pad + "  "
    sep = "," + inner
    if kind is list:
        if not obj:
            return "[]"
        if all(type(x) is int for x in obj):
            items = map(int.__repr__, obj)
        else:
            items = (_json_indent2(x, inner) for x in obj)
        return "[" + inner + sep.join(items) + pad + "]"
    if kind is dict and all(type(key) is str for key in obj):
        if not obj:
            return "{}"
        items = (encode_basestring_ascii(key) + ": " + _json_indent2(value, inner)
                 for key, value in sorted(obj.items()))
        return "{" + inner + sep.join(items) + pad + "}"
    return json.dumps(obj, sort_keys=True, indent=2).replace("\n", pad)


def _emit(args, text_lines, json_obj):
    fmt = args.format
    if fmt is None:
        fmt = "json" if args.command in ("certify", "demo") else "text"
    if fmt == "json":
        out = _json_indent2(json_obj)
    else:
        out = "\n".join(text_lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(out + "\n")
    else:
        print(out)


def _signature_report(e, args):
    if args.at is not None:
        x = CirclePoint.parse(args.at)
        val = levine_tristram(e, x)
        return [str(val)], {
            "expression": str(e), "at": str(x), "signature": val,
        }
    sf = signature_function(e, args.bound)
    lines = []
    for i, v in enumerate(sf.interval_values):
        lo = "0" if i == 0 else str(sf.jumps[i - 1])
        hi = str(sf.jumps[i]) if i < len(sf.jumps) else "1/2"
        close = ")" if i < len(sf.jumps) else "]"
        lines.append(f"({lo}, {hi}{close}: {v}")
        if i < len(sf.jumps):
            lines.append(f"at {sf.jumps[i]}: {sf.jump_values[i]}")
    return lines, {"expression": str(e), **sf.to_dict()}


def _cover_report(e):
    pres = cover_presentation(evaluate(e))
    g = pres.group
    lines = [f"H1 of the double branched cover: {g.describe()}"]
    data = {
        "expression": str(e),
        "invariant_factors": list(g.factors),
        "order": g.order,
    }
    if not g.is_trivial:
        lines.append(f"generator lifts: {[list(l) for l in pres.generator_lifts]}")
        lines.append("linking matrix (mod 1):")
        for row in pres.linking_matrix:
            lines.append("  " + "  ".join(str(x) for x in row))
        data["generator_lifts"] = [list(l) for l in pres.generator_lifts]
        data["linking_matrix"] = [[str(x) for x in row] for row in pres.linking_matrix]
    return lines, data


def _whitehead_report(a, b):
    pc = whitehead_cover(a, b)
    lines = [
        f"P({a},{b}) cover homology: {pc.group.describe()} "
        f"(order {pc.group.order})",
        f"v1 class: {pc.v1_class[0]}  v2 class: {pc.v2_class[0]}",
        f"winding number: {pc.winding_number}",
        f"self-linking of generator: {pc.linking_matrix[0][0]}",
    ]
    data = {
        "a": a, "b": b,
        "factors": list(pc.group.factors),
        "order": pc.group.order,
        "v1_class": list(pc.v1_class),
        "v2_class": list(pc.v2_class),
        "winding_number": pc.winding_number,
        "linking_matrix": [[str(x) for x in row] for row in pc.linking_matrix],
    }
    return lines, data


def _subgroup_report(args):
    if args.limit < 0:
        raise ExpressionError(f"--limit must be >= 0, got {args.limit}")
    if args.rank < 0:
        raise HypothesisViolation(f"rank {args.rank} is negative")
    subs = enumerate_subgroups((args.modulus,) * args.rank, args.order)
    lines = [
        f"{len(subs)} subgroups of (Z_{args.modulus})^{args.rank} "
        f"of order {args.order}"
    ]
    shown = subs[: args.limit]
    for s in shown:
        lines.append("  " + "; ".join(str(list(r)) for r in s.gens) if s.gens
                     else "  (trivial)")
    if len(subs) > len(shown):
        lines.append(f"  ... {len(subs) - len(shown)} more")
    data = {
        "modulus": args.modulus,
        "rank": args.rank,
        "order": args.order,
        "count": len(subs),
        "generators": [[list(r) for r in s.gens] for s in shown],
        "truncated": len(subs) > len(shown),
    }
    return lines, data


_PATTERN_RE = re.compile(r"^whitehead:(-?\d+),(-?\d+)$")


def _pattern_from_spec(spec):
    m = _PATTERN_RE.match(spec.strip())
    if not m:
        raise ExpressionError(
            f"cannot parse pattern {spec!r}; expected whitehead:a,b"
        )
    return whitehead_cover(int(m.group(1)), int(m.group(2)))


def _profile_from_spec(spec):
    spec = spec.strip()
    if spec == "zero":
        return CGProfile.zero()
    if spec.startswith("bound:"):
        from fractions import Fraction
        try:
            return CGProfile.bounded(Fraction(spec[len("bound:"):]))
        except (ValueError, ZeroDivisionError) as ex:
            raise ProfileError(f"bad bound in {spec!r}: {ex}") from ex
    if spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path) as fh:
                return CGProfile.from_description(json.load(fh))
        except OSError as ex:
            raise ProfileError(f"cannot read profile file {path!r}: {ex}") from ex
        except json.JSONDecodeError as ex:
            raise ProfileError(f"profile file {path!r} is not JSON: {ex}") from ex
    raise ProfileError(
        f"cannot parse profile {spec!r}; expected zero, bound:B, or file:PATH"
    )


def _certify_report(args):
    pattern = _pattern_from_spec(args.pattern)
    profile = _profile_from_spec(args.profile)
    family = [parse_knot(s) for s in args.family.split(";") if s.strip()]
    if not family:
        raise ExpressionError("family is empty")
    cert = certify_independence(
        pattern, profile, family, budget=args.budget, mode=args.mode,
        max_group_order=args.max_group_order, witness_cap=args.witness_cap,
        self_annihilating_only=args.self_annihilating,
        per_side_cap=args.per_side_cap,
    )
    return _cert_lines(cert), cert.to_json_dict()


def _cert_lines(cert):
    lines = [
        f"certified ({cert.mode} mode): {len(cert.selection.indices)} of "
        f"{len(cert.family)} family members selected",
        f"pattern cover: Z_{cert.pattern.group.order}, p = {cert.prime}, "
        f"k = {cert.exponent}",
        f"selected indices: {list(cert.selection.indices)}",
    ]
    if cert.mode == "exhaustive":
        lines.append(
            f"obstructed {len(cert.combos)} signed combinations "
            f"(budget {cert.budget})"
        )
    return lines


def _demo_report(args):
    pattern = whitehead_cover(args.a, args.b)
    n = pattern.group.order
    if args.count < 1:
        raise ExpressionError("demo family needs at least one member")
    multiples = [1]
    while len(multiples) < args.count:
        multiples.append(multiples[-1] * (n - 1) + 1)
    family = [parse_knot(f"{m}*mirror(torus(2,{n}))") for m in multiples]
    profile = CGProfile.zero()
    cert = certify_independence(
        pattern, profile, family, budget=args.budget, mode=args.mode,
        per_side_cap=args.per_side_cap,
    )
    lines = [
        f"P({args.a},{args.b}): cover Z_{n}",
        f"family multiples: {multiples}",
    ] + _cert_lines(cert)
    return lines, cert.to_json_dict()


def run(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "sig":
            lines, data = _signature_report(parse_knot(args.expr), args)
        elif args.command == "alex":
            e = parse_knot(args.expr)
            poly = alexander_polynomial(e)
            lines, data = [str(poly)], {
                "expression": str(e),
                "alexander": str(poly),
                "coefficients": list(poly.coeffs),
            }
        elif args.command == "cover":
            lines, data = _cover_report(parse_knot(args.expr))
        elif args.command == "whitehead":
            lines, data = _whitehead_report(args.a, args.b)
        elif args.command == "subgroups":
            lines, data = _subgroup_report(args)
        elif args.command == "certify":
            lines, data = _certify_report(args)
        else:
            assert args.command == "demo"
            lines, data = _demo_report(args)
        _emit(args, lines, data)
        return 0
    except (KnotcertError, MemoryError) as ex:
        return report_error(ex)


def report_error(ex):
    """Print ex as an error: line on stderr and return its exit code.

    ex is a KnotcertError or a MemoryError; the codes are the module
    docstring's.
    """
    if isinstance(ex, MemoryError):
        # numpy's _ArrayMemoryError included: memory is a budget too
        detail = f": {ex}" if str(ex) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3
    print(f"error: {ex}", file=sys.stderr)
    if isinstance(ex, (BudgetExceeded, PrecisionExhausted)):
        return 3
    if isinstance(ex, (HypothesisViolation, UnsupportedKnotError)):
        return 2
    # ExpressionError, ProfileError and any stragglers: input errors
    return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
