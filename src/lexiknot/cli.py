"""Command line interface: enumerate, mc, reduce, curve, table."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import DegenerateFractionError, default_catalog, parse_fraction, record_for_fraction
from .enumeration import SearchExhausted, diagram_summary, enumerate_simple_diagrams, m_C
from .planereduce import PlaneWord, reduction_search
from .report import build_table, diff_expected, emit, load_expected


def _record_for(fraction):
    try:
        return record_for_fraction(fraction)
    except DegenerateFractionError as exc:
        raise SystemExit(str(exc))


def _usage_error(command: str, message: str) -> int:
    """One line in argparse's error format, exit 2, for an argument that
    only fails once it meets the knot or the file system."""
    print(f"lexiknot {command}: error: {message}", file=sys.stderr)
    return 2


def _parse_poly(text: str):
    """A curve coordinate; the curve lab is imported here and in `cmd_curve`
    only, so the other commands start without it."""
    from .curvelab import Polynomial, chebyshev

    if text.startswith("cheb:"):
        return chebyshev(int(text[5:]))
    return Polynomial.parse(text.removeprefix("coeffs:"))


def _expecting(parse, expected: str):
    """An argparse type that reads ``text`` with ``parse`` and reports a
    ValueError by what was expected, not by the parser's name."""

    def convert(text: str):
        try:
            return parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}") from None

    return convert


_poly_arg = _expecting(_parse_poly, "cheb:N with N >= 0, or coeffs: followed by comma-separated rationals")
_word_arg = _expecting(PlaneWord.parse, "a comma-separated word of nonnegative integers such as 2,1,3")
_fraction_arg = _expecting(parse_fraction, "A/B (or A) with integers A and B, not both 0")


def _knot_names(text: str) -> list[str]:
    names = text.split(",")
    unknown = [n for n in names if n not in default_catalog().names()]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown knot(s): {', '.join(unknown)}")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"knot(s) named twice: {', '.join(repeated)}")
    return names


def cmd_enumerate(args: argparse.Namespace) -> int:
    rec = _record_for(args.fraction)
    try:
        diagrams = enumerate_simple_diagrams(rec, budget=args.budget)
    except ValueError as exc:  # the budget is out of range for this knot
        return _usage_error("enumerate", str(exc))
    except SearchExhausted as exc:
        raise SystemExit(str(exc))
    if args.json:
        print(json.dumps([diagram_summary(d) for d in diagrams], indent=2))
    else:
        for d in diagrams:
            print(d.text())
    return 0


def cmd_mc(args: argparse.Namespace) -> int:
    if args.cap is not None and args.cap < 0:
        return _usage_error("mc", f"argument --cap: must be at least 0, got {args.cap}")
    rec = _record_for(args.fraction)
    try:
        m = m_C(rec, cap=args.cap)
    except SearchExhausted as exc:
        raise SystemExit(str(exc))
    print(m)
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    trace = reduction_search(args.word)
    if args.json:
        print(
            json.dumps(
                {
                    "word": list(args.word.runs),
                    "base": list(trace.base.runs),
                    "cost": trace.cost,
                    "steps": [list(s) for s in trace.steps],
                    "b_lower": trace.bound,
                    "provenance": trace.provenance,
                },
                indent=2,
            )
        )
    else:
        print(f"base {trace.base} cost {trace.cost}")
        print(f"b >= {trace.bound}  ({trace.provenance})")
    return 0


def cmd_curve(args: argparse.Namespace) -> int:
    from .curvelab import (
        EmbeddingError,
        NonNodalError,
        NotTrigonalError,
        PlaneCurve,
        curve_crossings,
        verify_embedding,
        word_from_curve,
    )
    from .curvelab.svg import render_svg

    try:
        curve = PlaneCurve(args.x, args.y)
        cs = curve_crossings(curve)
    except (NotTrigonalError, NonNodalError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    word = word_from_curve(curve)
    out = {
        "bidegree": list(curve.bidegree),
        "crossings": len(cs),
        "word": list(word.runs),
    }
    if args.z:
        try:
            d, rec = verify_embedding(curve.x, curve.y, args.z)
        except EmbeddingError as exc:
            print(f"EmbeddingError: {exc}", file=sys.stderr)
            return 2
        out["diagram"] = d.text()
        out["fraction"] = str(d.fraction())
        out["knot"] = rec.name if rec else None
    if args.svg:
        svg = render_svg(curve)
        try:
            with open(args.svg, "w") as fh:
                fh.write(svg)
        except OSError as exc:
            return _usage_error("curve", f"argument --svg: cannot write {args.svg}: {exc.strerror}")
        out["svg"] = args.svg
    if args.json:
        print(json.dumps(out, indent=2))
    else:
        print(f"bidegree (3,{curve.bidegree[1]}), {out['crossings']} crossings, word {word}")
        if "knot" in out:
            print(f"diagram {out['diagram']} = {out['fraction']} -> {out['knot']}")
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    if args.diff:
        if not os.path.isfile(args.diff):
            return _usage_error("table", f"argument --diff: no such file: {args.diff}")
        try:
            expected = load_expected(args.diff)
        except ValueError as exc:  # the file is no knots.csv table
            return _usage_error("table", f"argument --diff: {exc}")
    rows = build_table(args.knots)
    print(emit(rows, args.format), end="")
    if any(r.error for r in rows):
        for r in rows:
            if r.error:
                print(f"{r.knot.name}: FAILED: {r.error}", file=sys.stderr)
                print(r.traceback, end="", file=sys.stderr)
        return 2
    if args.diff:
        mismatches = diff_expected(rows, expected)
        for m in mismatches:
            print(f"mismatch: {m}", file=sys.stderr)
        if mismatches:
            return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lexiknot",
        description="Lexicographic degree bounds for two-bridge knots",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="simple diagrams of a knot within a crossing budget")
    p.add_argument("--fraction", required=True, type=_fraction_arg, help="Schubert fraction A/B")
    p.add_argument("--budget", type=int, default=None, help="crossing budget (default: m_C)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("mc", help="minimal length of a +-1 diagram")
    p.add_argument("--fraction", required=True, type=_fraction_arg)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("reduce", help="reduce a plane word and bound its degree")
    p.add_argument("--word", required=True, type=_word_arg, help="comma-separated run lengths, e.g. 2,1,3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("curve", help="crossings and word of a plane curve")
    p.add_argument("--x", required=True, type=_poly_arg, help="cheb:N or coeffs:c0,c1,... (rationals)")
    p.add_argument("--y", required=True, type=_poly_arg)
    p.add_argument("--z", default=None, type=_poly_arg, help="height polynomial; identifies the knot")
    p.add_argument("--svg", default=None, help="write an SVG rendering here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("table", help="reproduce the full results table")
    p.add_argument("--knots", default=None, type=_knot_names, help="comma-separated names, e.g. 3_1,6_2")
    p.add_argument("--format", choices=["csv", "json", "md"], default="md")
    p.add_argument("--diff", default=None, help="compare against a knots.csv file")
    p.set_defaults(func=cmd_table)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
